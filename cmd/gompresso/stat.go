package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"gompresso"
	"gompresso/internal/buildinfo"
	"gompresso/internal/format"
	"gompresso/internal/gzidx"
)

// statJSON is the machine-readable shape of `gompresso stat -json`.
type statJSON struct {
	Tool       string  `json:"tool,omitempty"` // build identity of the binary that produced this
	Format     string  `json:"format"`
	CompSize   int64   `json:"compressed_size"`
	RawSize    int64   `json:"raw_size,omitempty"`
	Ratio      float64 `json:"ratio,omitempty"`
	Variant    string  `json:"variant,omitempty"`
	DEMode     string  `json:"de_mode,omitempty"`
	Window     uint32  `json:"window,omitempty"`
	MinMatch   uint8   `json:"min_match,omitempty"`
	MaxMatch   uint32  `json:"max_match,omitempty"`
	BlockSize  uint32  `json:"block_size,omitempty"`
	Blocks     uint32  `json:"blocks,omitempty"`
	Index      bool    `json:"index"`
	CWL        uint8   `json:"cwl,omitempty"`
	SeqsPerSub uint16  `json:"seqs_per_sub,omitempty"`
	MinBlockC  int64   `json:"min_block_comp,omitempty"`
	AvgBlockC  float64 `json:"avg_block_comp,omitempty"`
	MaxBlockC  int64   `json:"max_block_comp,omitempty"`

	// Foreign (.gz/.zz) fields, filled from a seek-index sidecar when a
	// fresh one sits beside the file.
	Members     int     `json:"members,omitempty"`
	Sidecar     string  `json:"sidecar,omitempty"` // none | valid | invalid
	Checkpoints int     `json:"checkpoints,omitempty"`
	AvgSpacing  float64 `json:"avg_checkpoint_spacing,omitempty"`
}

// statCmd prints container metadata without decompressing: the header
// fields, whether an index trailer is present, and the per-block
// compressed-size spread (the serving layer's cache granularity).
// Foreign formats report what the framing alone reveals.
func statCmd(args []string) error {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit JSON instead of text")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("stat needs <in>")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	st := statJSON{CompSize: int64(len(data))}
	form := gompresso.DetectFormat(data)
	st.Format = form.String()
	switch form {
	case gompresso.FormatGompresso:
		// Full validating parse — stat doubles as an integrity check.
		f, err := format.ParseFile(data)
		if err != nil {
			return err
		}
		h := f.Header
		st.RawSize = int64(h.RawSize)
		if st.RawSize > 0 {
			st.Ratio = float64(st.RawSize) / float64(len(data))
		}
		st.Variant = h.Variant.String()
		st.DEMode = fmt.Sprint(h.DEMode)
		st.Window = h.Window
		st.MinMatch, st.MaxMatch = h.MinMatch, h.MaxMatch
		st.BlockSize = h.BlockSize
		st.Blocks = h.NumBlocks
		if h.Variant == format.VariantBit {
			st.CWL = h.CWL
			st.SeqsPerSub = h.SeqsPerSub
		}
		idx, scanned, err := format.OpenIndex(bytes.NewReader(data), int64(len(data)), h)
		if err != nil {
			return err
		}
		st.Index = !scanned
		if idx.NumBlocks() > 0 {
			min, max, sum := int64(1<<62), int64(0), int64(0)
			for i := 0; i < idx.NumBlocks(); i++ {
				n := idx.Offsets[i+1] - idx.Offsets[i]
				sum += n
				if n < min {
					min = n
				}
				if n > max {
					max = n
				}
			}
			st.MinBlockC, st.MaxBlockC = min, max
			st.AvgBlockC = float64(sum) / float64(idx.NumBlocks())
		}
	case gompresso.FormatGzip, gompresso.FormatZlib:
		// Framing alone hides the raw size; a fresh sidecar beside the
		// file reveals it (and the random-access geometry) for free.
		st.Sidecar = "none"
		if fst, err := os.Stat(fs.Arg(0)); err == nil {
			idx, err := gzidx.LoadFile(fs.Arg(0)+gzidx.Ext, fst.Size(), fst.ModTime())
			switch {
			case err == nil:
				st.Sidecar = "valid"
				st.RawSize = idx.RawSize
				if len(data) > 0 {
					st.Ratio = float64(st.RawSize) / float64(len(data))
				}
				st.Members = idx.Members
				st.Checkpoints = idx.NumChunks()
				if n := idx.NumChunks(); n > 0 {
					st.AvgSpacing = float64(idx.RawSize) / float64(n)
				}
			case !os.IsNotExist(err):
				st.Sidecar = "invalid"
			}
		}
	case gompresso.FormatAuto:
		return fmt.Errorf("%s: unrecognized format", fs.Arg(0))
	}

	if *asJSON {
		st.Tool = buildinfo.Get().String()
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(&st)
	}
	fmt.Printf("format       %s\n", st.Format)
	fmt.Printf("comp size    %d\n", st.CompSize)
	if form != gompresso.FormatGompresso {
		if st.Sidecar != "valid" {
			fmt.Printf("raw size     unknown (foreign stream; `gompresso index` to measure)\n")
			fmt.Printf("sidecar      %s\n", st.Sidecar)
			return nil
		}
		fmt.Printf("raw size     %d\n", st.RawSize)
		fmt.Printf("ratio        %.3f\n", st.Ratio)
		fmt.Printf("members      %d\n", st.Members)
		fmt.Printf("sidecar      valid\n")
		fmt.Printf("checkpoints  %d (avg spacing %.0f bytes)\n", st.Checkpoints, st.AvgSpacing)
		return nil
	}
	fmt.Printf("raw size     %d\n", st.RawSize)
	fmt.Printf("ratio        %.3f\n", st.Ratio)
	fmt.Printf("variant      %s\n", st.Variant)
	fmt.Printf("DE mode      %s\n", st.DEMode)
	fmt.Printf("window       %d\n", st.Window)
	fmt.Printf("min match    %d\n", st.MinMatch)
	fmt.Printf("max match    %d\n", st.MaxMatch)
	fmt.Printf("block size   %d\n", st.BlockSize)
	fmt.Printf("blocks       %d\n", st.Blocks)
	fmt.Printf("index        %v\n", st.Index)
	if st.CWL != 0 {
		fmt.Printf("CWL          %d\n", st.CWL)
		fmt.Printf("seqs/sub     %d\n", st.SeqsPerSub)
	}
	if st.Blocks > 0 {
		fmt.Printf("block comp   min %d / avg %.0f / max %d\n", st.MinBlockC, st.AvgBlockC, st.MaxBlockC)
	}
	return nil
}
