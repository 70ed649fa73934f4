package trace

import "io"

// NewBinaryEncoderV1 creates an encoder writing the legacy v1 framing —
// absolute-value varints, no cross-record state. Only tests write v1:
// the checked-in v1 corpus, its generator and the fuzz seeds regenerate
// v1 streams with it, and the decoder still reads them.
func NewBinaryEncoderV1(w io.Writer) *BinaryEncoder {
	return newBinaryEncoder(w, BinaryV1)
}
