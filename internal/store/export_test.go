package store

// The entry codec, exported to the external test package for the fuzz
// target.
var (
	EncodeEntry = encodeEntry
	DecodeEntry = decodeEntry
)
