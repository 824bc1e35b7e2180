// Package wire is the warehouse's framed binary wire protocol: the codec
// shared by the server (this package) and the Go client
// (internal/wireclient).
//
// A connection starts with an 8-byte magic preamble from the client,
// followed by framed messages in both directions. Frames reuse the
// write-ahead log's conventions (internal/wal): length-prefixed,
// CRC-32C-checksummed payloads whose bodies are self-delimiting binary
// with minimal uvarints and exact-kind value tags.
//
// On-the-wire format:
//
//	conn    = magic frame*                     (magic client→server only)
//	magic   = "MDWIRE" 0x01 '\n'               (8 bytes)
//	frame   = len:uint32le crc:uint32le payload[len]   (crc = CRC-32C of payload)
//	payload = kind:byte id:uvarint body
//
// id is the request identifier: the client picks it, the response echoes
// it, so a session may pipeline requests and match answers out of order.
// A frame whose length exceeds the negotiated maximum, whose checksum
// mismatches, or whose payload is torn is a protocol error — the peer
// drops the connection rather than resynchronize.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"mindetail/internal/wal"
)

// Magic is the connection preamble the client writes before its first
// frame.
var Magic = []byte{'M', 'D', 'W', 'I', 'R', 'E', 0x01, '\n'}

const frameHeader = 8 // uint32 length + uint32 CRC-32C

// DefaultMaxFrame bounds a single frame (16 MiB) so a garbage or hostile
// length prefix cannot force a huge allocation; both ends enforce it. A
// response whose payload would exceed it is answered with an error
// instead.
const DefaultMaxFrame = 16 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Kind identifies a frame's role. Requests and responses share one space;
// responses start at 64.
type Kind byte

const (
	// KindHello opens a session: protocol version and the shared secret.
	KindHello Kind = 1
	// KindPing is a liveness probe; the server answers KindOK.
	KindPing Kind = 2
	// KindExec executes a SQL script (DDL, DML, or queries).
	KindExec Kind = 3
	// KindQuery reads a materialized view through the lock-free snapshot
	// path; the body names the version the client already holds.
	KindQuery Kind = 4
	// KindApply applies one externally produced delta through
	// Warehouse.ApplyDelta, which group-commits concurrent applies.
	KindApply Kind = 5
	// KindApplyBatch applies a batch of deltas under one lock acquisition
	// and one group commit.
	KindApplyBatch Kind = 6
	// KindMetrics fetches the warehouse observability snapshot as JSON.
	KindMetrics Kind = 7

	// KindOK is the bodiless success response.
	KindOK Kind = 64
	// KindError carries an error message; the request failed.
	KindError Kind = 65
	// KindResult carries an optional result set (Exec).
	KindResult Kind = 66
	// KindBatchResult carries one outcome per batch member.
	KindBatchResult Kind = 67
	// KindMetricsResult carries the metrics snapshot JSON.
	KindMetricsResult Kind = 68
	// KindView answers a Query with the view's version and contents.
	KindView Kind = 69
	// KindUnchanged answers a Query whose view is still at the version the
	// client holds: the version only.
	KindUnchanged Kind = 70
)

// String returns the symbolic name of the kind.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindPing:
		return "ping"
	case KindExec:
		return "exec"
	case KindQuery:
		return "query"
	case KindApply:
		return "apply"
	case KindApplyBatch:
		return "apply-batch"
	case KindMetrics:
		return "metrics"
	case KindOK:
		return "ok"
	case KindError:
		return "error"
	case KindResult:
		return "result"
	case KindBatchResult:
		return "batch-result"
	case KindMetricsResult:
		return "metrics-result"
	case KindView:
		return "view"
	case KindUnchanged:
		return "unchanged"
	}
	return fmt.Sprintf("Kind(%d)", byte(k))
}

func validKind(k Kind) bool {
	switch k {
	case KindHello, KindPing, KindExec, KindQuery, KindApply, KindApplyBatch,
		KindMetrics, KindOK, KindError, KindResult, KindBatchResult, KindMetricsResult,
		KindView, KindUnchanged:
		return true
	}
	return false
}

// Frame is one decoded protocol frame: the kind, the request id it belongs
// to, and the kind-specific body (see messages.go for the body codecs).
type Frame struct {
	Kind Kind
	ID   uint64
	Body []byte
}

// payloadLen is the length f's payload (kind + id + body) takes on the
// wire: what a frame limit bounds.
func payloadLen(f Frame) int {
	n := 2 + len(f.Body) // kind byte + the id's last uvarint byte
	for id := f.ID; id >= 0x80; id >>= 7 {
		n++
	}
	return n
}

// AppendFrame appends the full wire encoding of f (header + payload).
func AppendFrame(dst []byte, f Frame) []byte {
	// Payload = kind + id + body; build it in place after the header so a
	// single buffer serves header and payload.
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	dst = append(dst, byte(f.Kind))
	dst = binary.AppendUvarint(dst, f.ID)
	dst = append(dst, f.Body...)
	payload := dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// DecodeFrame parses one frame from the head of b, returning the remaining
// bytes. Torn headers, oversized lengths, checksum mismatches, unknown
// kinds, and non-minimal ids are all rejected with an error, never a
// panic; an accepted frame re-encodes byte-identically (the fuzz test's
// invariant).
func DecodeFrame(b []byte, maxFrame int) (Frame, []byte, error) {
	var f Frame
	if len(b) < frameHeader {
		return f, nil, fmt.Errorf("wire: torn frame header")
	}
	n := binary.LittleEndian.Uint32(b)
	crc := binary.LittleEndian.Uint32(b[4:])
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if uint64(n) > uint64(maxFrame) {
		return f, nil, fmt.Errorf("wire: frame length %d exceeds limit %d", n, maxFrame)
	}
	if uint64(len(b)-frameHeader) < uint64(n) {
		return f, nil, fmt.Errorf("wire: torn payload")
	}
	payload := b[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, castagnoli) != crc {
		return f, nil, fmt.Errorf("wire: frame checksum mismatch")
	}
	var err error
	if f, err = decodeFramePayload(payload); err != nil {
		return f, nil, err
	}
	return f, b[frameHeader+int(n):], nil
}

// decodeFramePayload parses kind + id + body from a checksum-valid
// payload.
func decodeFramePayload(payload []byte) (Frame, error) {
	var f Frame
	if len(payload) == 0 {
		return f, fmt.Errorf("wire: empty frame payload")
	}
	f.Kind = Kind(payload[0])
	if !validKind(f.Kind) {
		return f, fmt.Errorf("wire: unknown frame kind %d", payload[0])
	}
	id, rest, err := wal.Uvarint(payload[1:])
	if err != nil {
		return f, fmt.Errorf("wire: bad frame id")
	}
	f.ID = id
	f.Body = rest
	return f, nil
}

// WriteFrame encodes f into buf (grown as needed) and writes it to w with
// a single Write call, returning the (possibly regrown) buffer for reuse.
func WriteFrame(w io.Writer, buf []byte, f Frame) ([]byte, error) {
	buf = AppendFrame(buf[:0], f)
	_, err := w.Write(buf)
	return buf, err
}

// ReadFrame reads exactly one frame from r, reusing buf for the payload.
// It returns the frame (whose Body aliases the returned buffer — consume
// it before the next ReadFrame) and the buffer for reuse.
func ReadFrame(r io.Reader, buf []byte, maxFrame int) (Frame, []byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if uint64(n) > uint64(maxFrame) {
		return Frame{}, buf, fmt.Errorf("wire: frame length %d exceeds limit %d", n, maxFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, buf, err
	}
	if crc32.Checksum(payload, castagnoli) != crc {
		return Frame{}, buf, fmt.Errorf("wire: frame checksum mismatch")
	}
	f, err := decodeFramePayload(payload)
	return f, buf, err
}
