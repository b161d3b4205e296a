package gompresso

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"gompresso/internal/datagen"
)

// goldenInputs are the three datagen families the benchmark compresses, at
// fixed seeds and a size that ends in a partial block.
func goldenInputs() map[string][]byte {
	const n = 600<<10 + 123
	return map[string][]byte{
		"wiki":    datagen.WikiXML(n, 11),
		"matrix":  datagen.MatrixMarket(n, 12),
		"nesting": datagen.Nesting(n, 4, 13),
	}
}

// goldenDigests pins the SHA-256 of Codec.Compress output, recorded at the
// commit before the encoder rewrite (PR 13's parent). A change to any of
// them is a change to emitted containers: deliberate (then re-record them and
// say so) or a bug.
var goldenDigests = map[string]string{
	"matrix/bit/lit/idx":        "31547bf6a507bcc0846d804ab7beb569ea4ef4732a8d8a5d3cc4b820e777e367",
	"matrix/bit/lit/noidx":      "ec2d1865f229a42986cc2d555d3ccc2377ee068e7cd4db77eb452779532ca453",
	"matrix/bit/off/idx":        "91265ba8a6f8ce0edc66f0f170b88ac8261d44ee65dac31641e1a3f69ee12bf6",
	"matrix/bit/off/noidx":      "0ac8fb0802573887baf69a523940ebe9d8a9fa93eb3ed68956a5c0eba6b90b5d",
	"matrix/bit/strict/idx":     "0021fb354eba91e3942579fe7a7032c76672e0025bcc5d918ca19b7230d6cda1",
	"matrix/bit/strict/noidx":   "811152d7238300c4005254539ff575af907e2774f2c44683c38057106b05b25c",
	"matrix/byte/lit/idx":       "f29aba62b42e78563ed0a6c6aa61958b37cb838174bfc5bb7583eaed1cac756d",
	"matrix/byte/lit/noidx":     "301a145df0a95ba7f6d7058ffc2137d5e2ffb47fc8bad244dcf09bf2d4ca9802",
	"matrix/byte/off/idx":       "9fc7e70ed41707036cdac59cd6ee1354ca336a6a1b92a65dcc8f0c5e9a1ee413",
	"matrix/byte/off/noidx":     "a76cb97e348b4dbef93ce115d4051a965ce9a4254ed335dae743cb510b22ea55",
	"matrix/byte/strict/idx":    "0572f2984afb38a22e878d308fadc51a117a1a0dfdfea091701d01e1dc81f67d",
	"matrix/byte/strict/noidx":  "456cd17c01014806afefbad4c7f9702c1b138d17360aec91788f5432b84078c7",
	"nesting/bit/lit/idx":       "2bc4233b89721ae7fff5432ac9ce40ed5a1e5926bda666e0027ba545756404e1",
	"nesting/bit/lit/noidx":     "c9ed7fb3efa8c2b5607012306c9cbaf511536c4f26d8cb2da6680c90e2b9d4c1",
	"nesting/bit/off/idx":       "6ddd9b9dc06002f38d954f486d249272d4f4d99bd65de5a2057e5b170275e5f1",
	"nesting/bit/off/noidx":     "28f05efbc088c67fd4ebd770c98736e12e3b4ee61a56cbe1c2aa8968da2da09b",
	"nesting/bit/strict/idx":    "7b61f64cb64889568ffae50158f32b83e6ace3336031d0c9f897c453118ff44d",
	"nesting/bit/strict/noidx":  "bce89b198caed811110568c75b6e40e732379c811ee8382ed3f67b4edc4281cf",
	"nesting/byte/lit/idx":      "bababcb39983d083b7ef503e9ca602bafb03d97fb52e2169712e09519ad39e67",
	"nesting/byte/lit/noidx":    "eeeb288346c833b1ffbf168efcf256aa502550e41d6b723fa26f2e27aef5acde",
	"nesting/byte/off/idx":      "1ec108d4001fc122eb3d158505bd14310a38546f0e14fd6f3c88f53ca35c66d4",
	"nesting/byte/off/noidx":    "97b0376b78a348ec5bfd758281974990adf63fd1be167e81efcf5b950fd2ed82",
	"nesting/byte/strict/idx":   "e8d45c2b2b21842a7033914a49aa67ca901962bddb76f8c59f1a124896004744",
	"nesting/byte/strict/noidx": "365869611024bc57fa28c267ca932e10de5cf830bdc00ec359dae2b60dddd342",
	"wiki/bit/lit/idx":          "b709c27fc6215c75f9fecfb31e035519310bfd516b28663c2e51d6cbda473cc3",
	"wiki/bit/lit/noidx":        "373327c83e0027831a87c89e1ac6220240e22b162068c413ad309eb2b6907d6a",
	"wiki/bit/off/idx":          "27ebb8f0ea7a5582f87e711a24998e8f678d9b8336aa1d6c2c547d7236eba884",
	"wiki/bit/off/noidx":        "58eb03d2b756dc4c93a8c1756aa794d2af924f794f7445797e51959705f2b408",
	"wiki/bit/strict/idx":       "f5e25dd533f18bf3bfc4ea2dee5ed70a59ddc747f72a366fdad08a9c510447d9",
	"wiki/bit/strict/noidx":     "3d5e9beac135167f040d629203c2bdf6f473db9dc2dd5b23123a38cb533e731f",
	"wiki/byte/lit/idx":         "c303868f4be013d83e48c32ae6ec62ef42756ba16f23184050e706f58bdc6a37",
	"wiki/byte/lit/noidx":       "f7b0253e7b5baca5458de5820c8af82ae1c37d0349e7dc301486b41045b0d8e3",
	"wiki/byte/off/idx":         "0dc4e6bb8f2c297297bb7f0ced2b82721cc128cedbe0355816b950db2b90cbeb",
	"wiki/byte/off/noidx":       "90516367c9dc9315aa9ca63fc99bbbb9f7d0d291bd2000beef638dc10db82ec3",
	"wiki/byte/strict/idx":      "8ace653683ddb68c101cd46944feb052e586001c4aebb432b2947a9dba2f9a49",
	"wiki/byte/strict/noidx":    "df1422f1921ade0eb1142a08f4e96113f835a64d0f13174885c89fecca54dc58",
}

// forEachGolden hands fn every pinned configuration — the three inputs ×
// variant × DE mode × index — under its name in goldenDigests, with the codec
// that produces it.
func forEachGolden(t *testing.T, fn func(name string, c *Codec, raw []byte)) {
	variants := map[string]Variant{"bit": VariantBit, "byte": VariantByte}
	des := map[string]DEMode{"off": DEOff, "strict": DEStrict, "lit": DELit}
	for fam, raw := range goldenInputs() {
		for vn, v := range variants {
			for dn, de := range des {
				for _, index := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/%s/", fam, vn, dn)
					if index {
						name += "idx"
					} else {
						name += "noidx"
					}
					c, err := New(WithVariant(v), WithDE(de), WithIndex(index))
					if err != nil {
						t.Fatal(err)
					}
					fn(name, c, raw)
				}
			}
		}
	}
}

func TestGoldenContainerDigests(t *testing.T) {
	seen := 0
	forEachGolden(t, func(name string, c *Codec, raw []byte) {
		comp, _, err := c.Compress(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(comp)
		got := hex.EncodeToString(sum[:])
		if want, ok := goldenDigests[name]; !ok {
			t.Errorf("%s: no golden digest; got %s", name, got)
		} else if got != want {
			t.Errorf("%s: container digest %s, want %s", name, got, want)
		}
		seen++

		var buf bytes.Buffer
		w := c.NewWriter(&buf)
		if _, err := w.Write(raw); err != nil {
			t.Fatalf("%s: writer: %v", name, err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("%s: writer close: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), comp) {
			t.Errorf("%s: Writer output differs from Compress", name)
		}
	})
	if seen != len(goldenDigests) {
		t.Errorf("checked %d configurations, golden table has %d", seen, len(goldenDigests))
	}
}
