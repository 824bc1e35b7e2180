package wire

import (
	"encoding/binary"
	"fmt"

	"mindetail/internal/maintain"
	"mindetail/internal/ra"
	"mindetail/internal/tuple"
	"mindetail/internal/wal"
)

// ProtocolVersion is negotiated in the Hello exchange; a mismatch is a
// handshake error.
const ProtocolVersion = 2

// Body codecs. Every decoder consumes its input exactly: trailing bytes
// are a protocol error, so a valid body has one unique encoding (the same
// re-encode-identity discipline as the WAL payload codec, whose value and
// delta helpers these reuse).

// trailing rejects leftover bytes after a complete decode.
func trailing(rest []byte) error {
	if len(rest) != 0 {
		return fmt.Errorf("wire: %d trailing bytes in body", len(rest))
	}
	return nil
}

// AppendHello encodes a Hello body: protocol version + shared secret.
func AppendHello(dst []byte, secret string) []byte {
	dst = binary.AppendUvarint(dst, ProtocolVersion)
	return wal.AppendString(dst, secret)
}

// DecodeHello decodes a Hello body.
func DecodeHello(b []byte) (version uint64, secret string, err error) {
	version, b, err = wal.Uvarint(b)
	if err != nil {
		return 0, "", fmt.Errorf("wire: bad hello version")
	}
	secret, b, err = wal.DecodeString(b)
	if err != nil {
		return 0, "", err
	}
	return version, secret, trailing(b)
}

// AppendStringBody encodes the single-string bodies (Exec SQL, Error
// message).
func AppendStringBody(dst []byte, s string) []byte { return wal.AppendString(dst, s) }

// DecodeStringBody decodes a single-string body.
func DecodeStringBody(b []byte) (string, error) {
	s, rest, err := wal.DecodeString(b)
	if err != nil {
		return "", err
	}
	return s, trailing(rest)
}

// AppendQueryBody encodes a KindQuery body: the view name, then the
// version of it the client already holds (0 = none).
func AppendQueryBody(dst []byte, view string, since uint64) []byte {
	dst = wal.AppendString(dst, view)
	return binary.AppendUvarint(dst, since)
}

// DecodeQueryBody decodes a KindQuery body.
func DecodeQueryBody(b []byte) (view string, since uint64, err error) {
	if view, b, err = wal.DecodeString(b); err != nil {
		return "", 0, err
	}
	if since, b, err = wal.Uvarint(b); err != nil {
		return "", 0, fmt.Errorf("wire: bad query version")
	}
	return view, since, trailing(b)
}

// AppendUnchangedBody encodes a KindUnchanged body: the version the client
// named, which is still the view's.
func AppendUnchangedBody(dst []byte, ver uint64) []byte { return binary.AppendUvarint(dst, ver) }

// DecodeUnchangedBody decodes a KindUnchanged body.
func DecodeUnchangedBody(b []byte) (uint64, error) {
	ver, rest, err := wal.Uvarint(b)
	if err != nil {
		return 0, fmt.Errorf("wire: bad unchanged version")
	}
	return ver, trailing(rest)
}

// AppendViewBody encodes a KindView body: the view's version, then its
// contents as a result body.
func AppendViewBody(dst []byte, ver uint64, rel *ra.Relation) []byte {
	dst = binary.AppendUvarint(dst, ver)
	return AppendResultBody(dst, rel)
}

// DecodeViewBody decodes a KindView body; a view body always carries a
// relation.
func DecodeViewBody(b []byte) (uint64, *ResultSet, error) {
	ver, b, err := wal.Uvarint(b)
	if err != nil {
		return 0, nil, fmt.Errorf("wire: bad view version")
	}
	rs, err := DecodeResultBody(b)
	if err != nil {
		return 0, nil, err
	}
	if rs == nil {
		return 0, nil, fmt.Errorf("wire: view body without a result")
	}
	return ver, rs, nil
}

// AppendDeltaBody encodes a KindApply body.
func AppendDeltaBody(dst []byte, d maintain.Delta) []byte { return wal.AppendDelta(dst, d) }

// DecodeDeltaBody decodes a KindApply body.
func DecodeDeltaBody(b []byte) (maintain.Delta, error) {
	d, rest, err := wal.DecodeDelta(b)
	if err != nil {
		return d, err
	}
	return d, trailing(rest)
}

// AppendDeltaBatchBody encodes a KindApplyBatch body.
func AppendDeltaBatchBody(dst []byte, ds []maintain.Delta) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ds)))
	for _, d := range ds {
		dst = wal.AppendDelta(dst, d)
	}
	return dst
}

// DecodeDeltaBatchBody decodes a KindApplyBatch body.
func DecodeDeltaBatchBody(b []byte) ([]maintain.Delta, error) {
	n, b, err := wal.Uvarint(b)
	if err != nil || n > uint64(len(b)) {
		return nil, fmt.Errorf("wire: bad batch count")
	}
	ds := make([]maintain.Delta, n)
	for i := range ds {
		if ds[i], b, err = wal.DecodeDelta(b); err != nil {
			return nil, err
		}
	}
	return ds, trailing(b)
}

// ResultSet is a decoded query result: qualified column names and rows.
// It is the client-side shape of an ra.Relation without the server's
// schema machinery. The client caches the result sets its Query returns
// and hands the same one out again while the view is unchanged, so they
// are shared and read-only.
type ResultSet struct {
	Cols []string
	Rows []tuple.Tuple
}

// AppendResultBody encodes a KindResult body: a presence flag (Exec
// returns no relation for DDL/DML scripts), then columns and rows. It
// appends to dst without sizing it first: servers pass a pooled buffer
// (see Server) so a body grows once, not once per response.
func AppendResultBody(dst []byte, rel *ra.Relation) []byte {
	if rel == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(len(rel.Cols)))
	for _, c := range rel.Cols {
		dst = wal.AppendString(dst, c.String())
	}
	dst = binary.AppendUvarint(dst, uint64(len(rel.Rows)))
	for _, r := range rel.Rows {
		dst = wal.AppendTuple(dst, r)
	}
	return dst
}

// DecodeResultBody decodes a KindResult body; a nil ResultSet means the
// statement produced no relation.
func DecodeResultBody(b []byte) (*ResultSet, error) {
	if len(b) < 1 || b[0] > 1 {
		return nil, fmt.Errorf("wire: bad result flag")
	}
	if b[0] == 0 {
		return nil, trailing(b[1:])
	}
	b = b[1:]
	ncols, b, err := wal.Uvarint(b)
	if err != nil || ncols > uint64(len(b)) {
		return nil, fmt.Errorf("wire: bad column count")
	}
	rs := &ResultSet{Cols: make([]string, ncols)}
	for i := range rs.Cols {
		if rs.Cols[i], b, err = wal.DecodeString(b); err != nil {
			return nil, err
		}
	}
	nrows, b, err := wal.Uvarint(b)
	if err != nil || nrows > uint64(len(b)) {
		return nil, fmt.Errorf("wire: bad row count")
	}
	if nrows > 0 {
		rs.Rows = make([]tuple.Tuple, nrows)
		for i := range rs.Rows {
			if rs.Rows[i], b, err = wal.DecodeTuple(b); err != nil {
				return nil, err
			}
		}
	}
	return rs, trailing(b)
}

// AppendBatchResultBody encodes a KindBatchResult body: one outcome string
// per batch member, "" meaning success.
func AppendBatchResultBody(dst []byte, errs []error) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(errs)))
	for _, err := range errs {
		if err == nil {
			dst = wal.AppendString(dst, "")
		} else {
			dst = wal.AppendString(dst, err.Error())
		}
	}
	return dst
}

// DecodeBatchResultBody decodes a KindBatchResult body into per-member
// outcome strings ("" = success).
func DecodeBatchResultBody(b []byte) ([]string, error) {
	n, b, err := wal.Uvarint(b)
	if err != nil || n > uint64(len(b)) {
		return nil, fmt.Errorf("wire: bad batch result count")
	}
	out := make([]string, n)
	for i := range out {
		if out[i], b, err = wal.DecodeString(b); err != nil {
			return nil, err
		}
	}
	return out, trailing(b)
}
