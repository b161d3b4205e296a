package core

import (
	"errors"
	"testing"

	"gompresso/internal/format"
)

func TestOptionsNormalizeDefaults(t *testing.T) {
	o, err := Options{Variant: format.VariantBit}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if o.BlockSize != DefaultBlockSize || o.Window == 0 || o.MinMatch == 0 ||
		o.MaxMatch == 0 || o.CWL == 0 || o.SeqsPerSub == 0 || o.Workers < 1 {
		t.Fatalf("defaults not filled: %+v", o)
	}
}

func TestOptionsNormalizeRejects(t *testing.T) {
	bad := []Options{
		{Variant: format.VariantBit, BlockSize: -1},
		{Variant: format.VariantBit, Workers: -1},
		{Variant: format.VariantBit, SeqsPerSub: -1},
		{Variant: format.VariantBit, CWL: -1},
		{Variant: format.VariantBit, Window: -1},
		{Variant: format.VariantBit, BlockSize: 100},
		{Variant: 7},
		{Variant: format.VariantBit, CWL: 1},
	}
	for i, o := range bad {
		if _, err := o.Normalize(); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("case %d (%+v): want ErrInvalidOption, got %v", i, o, err)
		}
	}
}
