package store

// EncodeSegment is the in-memory segment encoder, for the external
// tests that hold streamed segments of real generations to it.
var EncodeSegment = encodeSegment
