package perf

import "testing"

func TestEnergy(t *testing.T) {
	if Energy(100, 2) != 200 {
		t.Fatal("energy arithmetic")
	}
}

func TestCalibrationTable(t *testing.T) {
	for _, d := range []Dataset{Wikipedia, Matrix} {
		for _, c := range []string{"Snappy", "LZ4", "Zstd", "zlib"} {
			pt, err := CalibratedCPU(d, c)
			if err != nil {
				t.Fatalf("%v/%s: %v", d, c, err)
			}
			if pt.GBps <= 0 || pt.Ratio <= 1 {
				t.Fatalf("%v/%s: implausible point %+v", d, c, pt)
			}
		}
	}
	if _, err := CalibratedCPU(Wikipedia, "nope"); err == nil {
		t.Fatal("unknown codec accepted")
	}
	if _, err := CalibratedCPU(Dataset(9), "zlib"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestPaperRelationsHold(t *testing.T) {
	// The calibration must preserve the paper's qualitative geometry:
	// byte-aligned codecs are faster but compress less than bit-aligned.
	for _, d := range []Dataset{Wikipedia, Matrix} {
		lz4, _ := CalibratedCPU(d, "LZ4")
		snappy, _ := CalibratedCPU(d, "Snappy")
		zlib, _ := CalibratedCPU(d, "zlib")
		zstd, _ := CalibratedCPU(d, "Zstd")
		if !(lz4.GBps > zlib.GBps && snappy.GBps > zlib.GBps) {
			t.Fatalf("%v: byte codecs should out-run zlib", d)
		}
		if !(zlib.Ratio > lz4.Ratio && zstd.Ratio > snappy.Ratio) {
			t.Fatalf("%v: bit codecs should out-compress byte codecs", d)
		}
	}
	// Wikipedia gzip ratio must match the paper's quoted 3.09.
	w, _ := CalibratedCPU(Wikipedia, "zlib")
	if w.Ratio != 3.09 {
		t.Fatalf("zlib Wikipedia ratio %v, paper says 3.09", w.Ratio)
	}
	m, _ := CalibratedCPU(Matrix, "zlib")
	if m.Ratio != 4.99 {
		t.Fatalf("zlib Matrix ratio %v, paper says 4.99", m.Ratio)
	}
}
