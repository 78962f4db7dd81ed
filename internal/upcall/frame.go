package upcall

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// The wire protocol is length-prefixed frames: a 4-byte big-endian payload
// length followed by one envelope in the fixed binary layout below. Every
// frame stands alone (no stream state), so a torn frame or a decode error
// poisons nothing beyond its own connection, responses can be written out of
// order under pipelining, and a reader always knows exactly how many bytes
// to consume or discard. The length prefix is validated against MaxFrame
// before any allocation — a corrupt or hostile header cannot balloon memory.
//
// Payload layout, fields in this order and always all present ("uvarint" and
// "varint" are encoding/binary's; a string is a uvarint byte count, bounded
// by what is left of the frame, followed by that many bytes):
//
//	byte    wire version (wireVersion)
//	byte    flags: 0x01 Req.Write, 0x02 Req.Strict, 0x04 Resp.OK,
//	               0x08 Resp.TakeOver, 0x10 Retryable; other bits must be 0
//	uvarint Seq
//	uvarint TraceID   (0 = untraced)
//	uvarint SpanID    (must fit 32 bits)
//	byte    Req.Op
//	varint  Req.UID   (must fit 32 bits)
//	uvarint Req.OpenID
//	varint  Req.Size
//	varint  Req.Mtime
//	string  Req.Path
//	string  Req.NewPath
//	string  Req.Token
//	byte    Resp.Code
//	uvarint Resp.OpenID
//	string  Resp.Err
//	string  Err
//
// and nothing after it: trailing bytes fail the decode. A request leaves the
// response fields zero and a response the request fields (one byte each), so
// there is one layout, not two. The wire is not persistent, so the layout has
// no compatibility story beyond its first byte: ANY change to the fields, their
// order or their encoding bumps wireVersion, and a peer at another version —
// or one speaking the gob envelope this replaced — is refused with
// ErrWireVersion on its first frame instead of being half-understood.

// DefaultMaxFrame bounds one frame's payload. Upcall requests and responses
// are small (paths, tokens, scalars); 1 MiB leaves two orders of magnitude
// of headroom while still rejecting garbage headers immediately.
const DefaultMaxFrame = 1 << 20

// wireVersion is the first payload byte of every frame.
const wireVersion = 1

const (
	flagReqWrite = 1 << iota
	flagReqStrict
	flagRespOK
	flagRespTakeOver
	flagRetryable
	flagsKnown = flagRetryable<<1 - 1
)

// envelope is the frame body. Seq correlates a response to its request
// on one connection: the client rejects (and retires the connection on) any
// response whose Seq does not match the request it just sent, so a stale
// response from an earlier timed-out request can never be mis-delivered.
type envelope struct {
	Seq  uint64
	Req  Request
	Resp Response
	// Err carries a Service-level error (the daemon answered with an
	// error). Retryable marks transient server conditions — overload,
	// draining — that the client may safely retry; everything else is
	// permanent.
	Err       string
	Retryable bool
	// TraceID/SpanID propagate the client's trace context so the daemon can
	// stitch its spans under the request's wire span. Zero means untraced:
	// a client without a tracer sends zeros and the server serves the
	// request without adopting anything.
	TraceID uint64
	SpanID  uint32
}

// errMalformed is the cause of every decode failure except a version
// mismatch; the frame's connection is retired either way.
var errMalformed = errors.New("upcall: malformed frame")

// frameBuf is a pooled staging buffer for one frame (header + payload), so
// the steady state encodes and decodes without allocating. It is pooled by
// pointer to keep Put itself allocation-free.
type frameBuf struct{ b []byte }

// maxPooledFrame caps what goes back into the pool: one rare large frame
// must not pin its buffer for the life of the process.
const maxPooledFrame = 64 << 10

var framePool = sync.Pool{New: func() any { return &frameBuf{b: make([]byte, 0, 512)} }}

func getFrameBuf() *frameBuf { return framePool.Get().(*frameBuf) }

func putFrameBuf(fb *frameBuf) {
	if cap(fb.b) <= maxPooledFrame {
		framePool.Put(fb)
	}
}

// appendEnvelope appends e's payload encoding to b.
func appendEnvelope(b []byte, e *envelope) []byte {
	var flags byte
	if e.Req.Write {
		flags |= flagReqWrite
	}
	if e.Req.Strict {
		flags |= flagReqStrict
	}
	if e.Resp.OK {
		flags |= flagRespOK
	}
	if e.Resp.TakeOver {
		flags |= flagRespTakeOver
	}
	if e.Retryable {
		flags |= flagRetryable
	}
	b = append(b, wireVersion, flags)
	b = binary.AppendUvarint(b, e.Seq)
	b = binary.AppendUvarint(b, e.TraceID)
	b = binary.AppendUvarint(b, uint64(e.SpanID))
	b = append(b, byte(e.Req.Op))
	b = binary.AppendVarint(b, int64(e.Req.UID))
	b = binary.AppendUvarint(b, e.Req.OpenID)
	b = binary.AppendVarint(b, e.Req.Size)
	b = binary.AppendVarint(b, e.Req.Mtime)
	b = appendString(b, e.Req.Path)
	b = appendString(b, e.Req.NewPath)
	b = appendString(b, e.Req.Token)
	b = append(b, byte(e.Resp.Code))
	b = binary.AppendUvarint(b, e.Resp.OpenID)
	b = appendString(b, e.Resp.Err)
	b = appendString(b, e.Err)
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// decoder walks one payload. The first short read or overlong varint sets
// bad and every later read returns zero, so decodeEnvelope checks once.
type decoder struct {
	b   []byte
	bad bool
}

func (d *decoder) byte() byte {
	if len(d.b) == 0 {
		d.bad = true
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.bad, d.b = true, nil
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.bad, d.b = true, nil
		return 0
	}
	d.b = d.b[n:]
	return v
}

// string copies the bytes out, so the result outlives the pooled buffer. The
// length is checked against what is left of the frame first: a decode never
// allocates more than the frame it was handed.
func (d *decoder) string() string {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.bad, d.b = true, nil
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// decodeEnvelope decodes one frame payload already read off the wire.
func decodeEnvelope(payload []byte, e *envelope) error {
	if len(payload) == 0 {
		return fmt.Errorf("%w: empty payload", errMalformed)
	}
	if payload[0] != wireVersion {
		return fmt.Errorf("%w: %w: peer sent 0x%02x, this end speaks %d", ErrTransport, ErrWireVersion, payload[0], wireVersion)
	}
	d := decoder{b: payload[1:]}
	flags := d.byte()
	e.Seq = d.uvarint()
	e.TraceID = d.uvarint()
	span := d.uvarint()
	e.SpanID = uint32(span)
	e.Req.Op = Op(d.byte())
	uid := d.varint()
	e.Req.UID = int32(uid)
	e.Req.OpenID = d.uvarint()
	e.Req.Size = d.varint()
	e.Req.Mtime = d.varint()
	e.Req.Path = d.string()
	e.Req.NewPath = d.string()
	e.Req.Token = d.string()
	e.Resp.Code = Code(d.byte())
	e.Resp.OpenID = d.uvarint()
	e.Resp.Err = d.string()
	e.Err = d.string()
	switch {
	case d.bad:
		return fmt.Errorf("%w: truncated", errMalformed)
	case len(d.b) != 0:
		return fmt.Errorf("%w: %d trailing bytes", errMalformed, len(d.b))
	case flags&^flagsKnown != 0:
		return fmt.Errorf("%w: unknown flag bits 0x%02x", errMalformed, flags&^flagsKnown)
	case span > math.MaxUint32 || uid < math.MinInt32 || uid > math.MaxInt32:
		return fmt.Errorf("%w: 32-bit field out of range", errMalformed)
	}
	e.Req.Write = flags&flagReqWrite != 0
	e.Req.Strict = flags&flagReqStrict != 0
	e.Resp.OK = flags&flagRespOK != 0
	e.Resp.TakeOver = flags&flagRespTakeOver != 0
	e.Retryable = flags&flagRetryable != 0
	return nil
}

// writeFrame encodes and writes one frame. The payload is staged in a
// buffer so the length prefix and body go out in a single Write (one
// syscall, and no torn header on a concurrent writer bug).
func writeFrame(w io.Writer, maxFrame int, e *envelope) error {
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	fb.b = appendEnvelope(append(fb.b[:0], 0, 0, 0, 0), e)
	n := len(fb.b) - 4
	if n > maxFrame {
		return fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	binary.BigEndian.PutUint32(fb.b[:4], uint32(n))
	_, err := w.Write(fb.b)
	return err
}

// readFrame reads and decodes one frame.
func readFrame(r io.Reader, maxFrame int, e *envelope) error {
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	n, err := readFrameHeader(r, maxFrame, fb)
	if err != nil {
		return err
	}
	return readFrameBody(r, n, fb, e)
}

// readFrameHeader reads the length prefix and rejects an oversized payload
// before anything is allocated for it. It is split from the body so the
// server can re-arm its read deadline between the two.
func readFrameHeader(r io.Reader, maxFrame int, fb *frameBuf) (int, error) {
	hdr := append(fb.b[:0], 0, 0, 0, 0)
	fb.b = hdr
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if int64(n) > int64(maxFrame) {
		return 0, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	return int(n), nil
}

// readFrameBody reads the n payload bytes readFrameHeader announced into fb
// and decodes them.
func readFrameBody(r io.Reader, n int, fb *frameBuf, e *envelope) error {
	if cap(fb.b) < n {
		fb.b = make([]byte, n)
	}
	payload := fb.b[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return err
	}
	return decodeEnvelope(payload, e)
}
