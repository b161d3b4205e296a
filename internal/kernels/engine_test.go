package kernels

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gompresso/internal/core"
	"gompresso/internal/datagen"
	"gompresso/internal/format"
	"gompresso/internal/gpu"
	"gompresso/internal/lz77"
)

// container compresses src with the host encoder.
func container(t testing.TB, src []byte, o core.Options) []byte {
	t.Helper()
	comp, _, err := core.Compress(src, o)
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

// Every variant × parse mode decompresses bit-exactly on the device under
// every strategy that parse admits, empty and sub-block inputs included.
func TestDecompressAllConfigurations(t *testing.T) {
	corpus := testCorpus()
	for _, n := range []int{0, 1, 2, 5, 100, len(corpus)} {
		src := corpus[:n]
		for _, variant := range []format.Variant{format.VariantByte, format.VariantBit} {
			for _, de := range []lz77.DEMode{lz77.DEOff, lz77.DEStrict, lz77.DELit} {
				comp := container(t, src, core.Options{Variant: variant, DE: de, BlockSize: 64 << 10})
				strats := []Strategy{Auto, SC, MRR}
				if de != lz77.DEOff {
					strats = append(strats, DE)
				}
				for _, st := range strats {
					out, ds, err := Decompress(comp, Config{Strategy: st})
					if err != nil {
						t.Fatalf("n=%d %v/%v device/%v: %v", n, variant, de, st, err)
					}
					if !bytes.Equal(out, src) {
						t.Fatalf("n=%d %v/%v device/%v: mismatch", n, variant, de, st)
					}
					if n > 0 && ds.DeviceSeconds <= 0 {
						t.Fatalf("n=%d %v/%v device/%v: no simulated time", n, variant, de, st)
					}
				}
			}
		}
	}
}

// An unpinned strategy follows the stream: one round per group on a
// DE-parsed container, multi-round resolution otherwise.
func TestAutoStrategyFollowsParse(t *testing.T) {
	src := []byte(strings.Repeat("abcdefghij", 60000))
	for _, tc := range []struct {
		de   lz77.DEMode
		want Strategy
	}{{lz77.DEOff, MRR}, {lz77.DEStrict, DE}, {lz77.DELit, DE}} {
		comp := container(t, src, core.Options{Variant: format.VariantByte, DE: tc.de})
		_, auto, err := Decompress(comp, Config{})
		if err != nil {
			t.Fatal(err)
		}
		_, pinned, err := Decompress(comp, Config{Strategy: tc.want})
		if err != nil {
			t.Fatal(err)
		}
		if auto.LZ77Launch.Label != "byte/"+tc.want.String() || auto.SimSeconds != pinned.SimSeconds {
			t.Errorf("%v parse: auto ran %s in %v, %v runs in %v",
				tc.de, auto.LZ77Launch.Label, auto.SimSeconds, tc.want, pinned.SimSeconds)
		}
	}
}

func TestPCIeModesIncreaseSimTime(t *testing.T) {
	comp := container(t, datagen.WikiXML(2<<20, 11), core.Options{Variant: format.VariantByte, DE: lz77.DEStrict})
	times := make(map[PCIeMode]float64)
	for _, m := range []PCIeMode{PCIeNone, PCIeIn, PCIeInOut} {
		_, ds, err := Decompress(comp, Config{Strategy: DE, PCIe: m})
		if err != nil {
			t.Fatal(err)
		}
		times[m] = ds.SimSeconds
	}
	// Output transfer overlaps compute, so In/Out may equal In when the
	// kernels dominate; it must never be cheaper.
	if !(times[PCIeNone] < times[PCIeIn] && times[PCIeIn] <= times[PCIeInOut]) {
		t.Fatalf("PCIe ordering violated: %v", times)
	}
}

func TestDEStreamDecompressesWithDEStrategy(t *testing.T) {
	comp := container(t, datagen.WikiXML(512<<10, 11), core.Options{DE: lz77.DEStrict, Variant: format.VariantBit})
	_, ds, err := Decompress(comp, Config{Strategy: DE})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Rounds.MaxRounds > 1 {
		t.Fatalf("DE stream needed %d rounds", ds.Rounds.MaxRounds)
	}
}

func TestGreedyStreamNeedsMRR(t *testing.T) {
	src := []byte(strings.Repeat("abcdefghij", 60000))
	comp := container(t, src, core.Options{DE: lz77.DEOff, Variant: format.VariantByte})
	if _, _, err := Decompress(comp, Config{Strategy: DE}); err == nil {
		t.Fatal("DE strategy accepted dependent stream")
	}
	out, ds, err := Decompress(comp, Config{Strategy: MRR})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, src) {
		t.Fatal("MRR mismatch")
	}
	if ds.Rounds.MaxRounds < 2 {
		t.Fatalf("expected multi-round resolution, got max %d", ds.Rounds.MaxRounds)
	}
}

func TestHostAndDeviceAgree(t *testing.T) {
	corpus := datagen.WikiXML(201_000, 11)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := corpus[:1000+rng.Intn(200_000)]
		comp, _, err := core.Compress(src, core.Options{Variant: format.Variant(seed & 1), BlockSize: 32 << 10, DE: lz77.DEStrict})
		if err != nil {
			return false
		}
		h, err := core.DecompressContext(t.Context(), comp, 0)
		if err != nil {
			return false
		}
		d, _, err := Decompress(comp, Config{Strategy: DE})
		if err != nil {
			return false
		}
		return bytes.Equal(h, src) && bytes.Equal(d, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// A bigger imaginary device must not be slower.
func TestCustomDevice(t *testing.T) {
	spec := gpu.TeslaK40()
	spec.SMs = 30
	dev, err := gpu.NewDevice(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	comp := container(t, datagen.MatrixMarket(2<<20, 5), core.Options{Variant: format.VariantByte, DE: lz77.DEStrict})
	_, big, err := Decompress(comp, Config{Strategy: DE, Device: dev, TileTo: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	_, k40, err := Decompress(comp, Config{Strategy: DE, TileTo: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if big.SimSeconds > k40.SimSeconds*1.01 {
		t.Fatalf("30-SM device slower than 15-SM: %v vs %v", big.SimSeconds, k40.SimSeconds)
	}
}

// The model's numbers are pinned to the values internal/core's device engine
// returned before it moved here (PR 21; 1 MiB of datagen seed 1 per corpus):
// the launches are deterministic, so any drift is a change to the simulator,
// the parse or the container, never noise.
func TestDecompressPinned(t *testing.T) {
	const bitDE, byteMRR = "Bit/DE", "Byte/MRR"
	comps := map[[2]string][]byte{}
	for name, data := range map[string][]byte{"wiki": datagen.WikiXML(1<<20, 1), "matrix": datagen.MatrixMarket(1<<20, 1)} {
		comps[[2]string{name, bitDE}] = container(t, data, core.Options{Variant: format.VariantBit, DE: lz77.DEStrict})
		comps[[2]string{name, byteMRR}] = container(t, data, core.Options{Variant: format.VariantByte, DE: lz77.DEOff})
	}
	for _, p := range []struct {
		corpus, codec         string
		pcie                  PCIeMode
		tileTo                int64
		sim, dev, pin, pout   float64
		groups, total, rounds int64
	}{
		{"wiki", "Bit/DE", PCIeNone, 0, 0.003674520805369127, 0.003674520805369127, 0, 0, 2503, 2503, 1},
		{"wiki", "Bit/DE", PCIeNone, 1 << 30, 0.00011444357941834451, 0.00011444357941834451, 0, 0, 2503, 2503, 1},
		{"wiki", "Bit/DE", PCIeIn, 0, 0.0037154731130614347, 0.003674520805369127, 4.095230769230769e-05, 0, 2503, 2503, 1},
		{"wiki", "Bit/DE", PCIeIn, 1 << 30, 0.0001553958871106522, 0.00011444357941834451, 4.095230769230769e-05, 0, 2503, 2503, 1},
		{"wiki", "Bit/DE", PCIeInOut, 0, 0.0037154731130614347, 0.003674520805369127, 4.095230769230769e-05, 9.065969230769231e-05, 2503, 2503, 1},
		{"wiki", "Bit/DE", PCIeInOut, 1 << 30, 0.0001553958871106522, 0.00011444357941834451, 4.095230769230769e-05, 9.065969230769231e-05, 2503, 2503, 1},
		{"wiki", "Byte/MRR", PCIeNone, 0, 0.006915928859060403, 0.006915928859060403, 0, 0, 2570, 6250, 14},
		{"wiki", "Byte/MRR", PCIeNone, 1 << 30, 0.00011262111856823267, 0.00011262111856823267, 0, 0, 2570, 6250, 14},
		{"wiki", "Byte/MRR", PCIeIn, 0, 0.006965728320598864, 0.006915928859060403, 4.979946153846154e-05, 0, 2570, 6250, 14},
		{"wiki", "Byte/MRR", PCIeIn, 1 << 30, 0.00016242058010669421, 0.00011262111856823267, 4.979946153846154e-05, 0, 2570, 6250, 14},
		{"wiki", "Byte/MRR", PCIeInOut, 0, 0.006965728320598864, 0.006915928859060403, 4.979946153846154e-05, 9.065969230769231e-05, 2570, 6250, 14},
		{"wiki", "Byte/MRR", PCIeInOut, 1 << 30, 0.00016242058010669421, 0.00011262111856823267, 4.979946153846154e-05, 9.065969230769231e-05, 2570, 6250, 14},
		{"matrix", "Bit/DE", PCIeNone, 0, 0.004764191946308725, 0.004764191946308725, 0, 0, 3500, 3500, 1},
		{"matrix", "Bit/DE", PCIeNone, 1 << 30, 0.00012088322147651007, 0.00012088322147651007, 0, 0, 3500, 3500, 1},
		{"matrix", "Bit/DE", PCIeIn, 0, 0.004801467484770263, 0.004764191946308725, 3.7275538461538464e-05, 0, 3500, 3500, 1},
		{"matrix", "Bit/DE", PCIeIn, 1 << 30, 0.00015815875993804854, 0.00012088322147651007, 3.7275538461538464e-05, 0, 3500, 3500, 1},
		{"matrix", "Bit/DE", PCIeInOut, 0, 0.004801467484770263, 0.004764191946308725, 3.7275538461538464e-05, 9.065969230769231e-05, 3500, 3500, 1},
		{"matrix", "Bit/DE", PCIeInOut, 1 << 30, 0.00015815875993804854, 0.00012088322147651007, 3.7275538461538464e-05, 9.065969230769231e-05, 3500, 3500, 1},
		{"matrix", "Byte/MRR", PCIeNone, 0, 0.034077287248322145, 0.034077287248322145, 0, 0, 3926, 33977, 18},
		{"matrix", "Byte/MRR", PCIeNone, 1 << 30, 0.0005230493288590604, 0.0005230493288590604, 0, 0, 3926, 33977, 18},
		{"matrix", "Byte/MRR", PCIeIn, 0, 0.034120818017552915, 0.034077287248322145, 4.353076923076923e-05, 0, 3926, 33977, 18},
		{"matrix", "Byte/MRR", PCIeIn, 1 << 30, 0.0005665800980898296, 0.0005230493288590604, 4.353076923076923e-05, 0, 3926, 33977, 18},
		{"matrix", "Byte/MRR", PCIeInOut, 0, 0.034120818017552915, 0.034077287248322145, 4.353076923076923e-05, 9.065969230769231e-05, 3926, 33977, 18},
		{"matrix", "Byte/MRR", PCIeInOut, 1 << 30, 0.0005665800980898296, 0.0005230493288590604, 4.353076923076923e-05, 9.065969230769231e-05, 3926, 33977, 18},
	} {
		strat := DE
		if p.codec == byteMRR {
			strat = MRR
		}
		_, st, err := Decompress(comps[[2]string{p.corpus, p.codec}], Config{Strategy: strat, PCIe: p.pcie, TileTo: p.tileTo})
		if err != nil {
			t.Fatal(err)
		}
		r := st.Rounds
		if st.SimSeconds != p.sim || st.DeviceSeconds != p.dev || st.PCIeInSec != p.pin || st.PCIeOutSec != p.pout ||
			int64(r.Groups) != p.groups || r.TotalRounds != p.total || int64(r.MaxRounds) != p.rounds {
			t.Errorf("%s %s %v tile=%d: sim %v dev %v in %v out %v rounds {%d %d %d}, want %+v",
				p.corpus, p.codec, p.pcie, p.tileTo, st.SimSeconds, st.DeviceSeconds, st.PCIeInSec, st.PCIeOutSec,
				r.Groups, r.TotalRounds, r.MaxRounds, p)
		}
	}
}
