package netparse

// Error classes for frame-decoding failures. The tolerant ingest path
// (fleet.Tenant.Ingest, stream.Monitor.FeedRecord) counts failures per
// class instead of aborting, so a lossy or corrupted capture degrades
// into metrics rather than a crash.
const (
	// ClassTruncated marks frames cut short of a declared length —
	// snaplen truncation or a capture stopped mid-record.
	ClassTruncated = "truncated"
	// ClassChecksum marks frames whose IPv4 header checksum fails —
	// in-flight byte corruption.
	ClassChecksum = "checksum"
	// ClassUnsupported marks well-formed frames of a protocol the
	// pipeline does not inspect (non-IP ethertypes, non-TCP/UDP).
	ClassUnsupported = "unsupported"
	// ClassMalformed marks frames with internally inconsistent
	// headers, e.g. an IPv4 total length smaller than the IHL.
	ClassMalformed = "malformed"
)

// ErrorClasses lists every decode error class in stable report order.
var ErrorClasses = []string{ClassChecksum, ClassMalformed, ClassTruncated, ClassUnsupported}

// ParseError is the typed error Decode returns for a frame it cannot
// parse: a class for per-class counting plus the underlying cause.
// errors.Is against the sentinel errors (ErrTruncated, ErrBadChecksum,
// ErrUnsupported) keeps working through Unwrap.
type ParseError struct {
	Class string
	Err   error
}

// Error implements error.
func (e *ParseError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ParseError) Unwrap() error { return e.Err }

// ErrorClass maps any error to its counting class: "" for nil, the
// ParseError class when typed, "other" otherwise.
func ErrorClass(err error) string {
	if err == nil {
		return ""
	}
	if pe, ok := err.(*ParseError); ok {
		return pe.Class
	}
	return "other"
}

// parseErr wraps a decode failure with its class.
func parseErr(class string, err error) error {
	return &ParseError{Class: class, Err: err}
}
