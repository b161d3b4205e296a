package gompresso_test

import (
	"testing"

	"gompresso"
)

// byteVariant selects Gompresso/Byte; New's own default is Bit.
var byteVariant = gompresso.WithVariant(gompresso.VariantByte)

// newCodec is gompresso.New, failing the test on a rejected option.
func newCodec(tb testing.TB, opts ...gompresso.Option) *gompresso.Codec {
	tb.Helper()
	c, err := gompresso.New(opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// compress returns the container a codec built from opts makes of src.
func compress(tb testing.TB, src []byte, opts ...gompresso.Option) []byte {
	tb.Helper()
	comp, _, err := newCodec(tb, opts...).Compress(src)
	if err != nil {
		tb.Fatal(err)
	}
	return comp
}
