package sqlmini

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"datalinks/internal/datalink"
)

// dmlKind is the kind of a logged data change. The numbers are on disk.
type dmlKind uint8

const (
	opInsert dmlKind = iota + 1
	opDelete
	opUpdate
	opCreateTable
	opDropTable
	opCreateIndex
	opDropIndex
)

// logPayload is the body of RecUpdate/RecCLR records.
type logPayload struct {
	Op     dmlKind
	Table  string
	Row    RowID
	Before Row
	After  Row
	Cols   []Column // DDL only
	Col    string   // index DDL only: the indexed column
}

// The stored form of a logPayload, version 1. Every op uses the one layout;
// the fields an op does not carry are empty and cost a byte each.
//
//	0x00 | version | op | table | row id | before row | after row | columns | index column
//
//	string  = uvarint length, bytes
//	row id  = uvarint
//	row     = uvarint count, then per value its Kind byte and
//	            BIGINT    zigzag varint
//	            DOUBLE    8 bytes, IEEE 754 bits little-endian
//	            VARCHAR   string
//	            BOOLEAN   one byte, 0 or 1
//	            TIMESTAMP one length byte, time.Time.MarshalBinary
//	            DATALINK  server string, path string
//	            NULL      nothing
//	columns = uvarint count, then per column: name string, Kind byte, flags
//	          byte (1 primary key, 2 not null, 4 recovery), the control mode's
//	          integrity, read and write bytes, zigzag varint token TTL seconds
//
// The leading 0x00 is what tells this layout from the gob stream PRs before
// 18 logged: a gob stream starts with a message length, which is never zero.
// Varints are minimal, so a payload has exactly one encoding.
const (
	payloadMagic   byte = 0x00
	payloadVersion byte = 1
)

// ErrBadPayload marks a log payload the decoder refuses: truncated, carrying
// a length that reaches past its end, an unknown op, kind or version, or
// bytes after its last field.
var ErrBadPayload = errors.New("sqlmini: malformed log payload")

const (
	colPrimaryKey = 1 << iota
	colNotNull
	colRecovery
)

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// zigzag is the unsigned form binary.AppendVarint writes x as.
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// maxTimeLen is the longest time.Time.MarshalBinary output.
const maxTimeLen = 16

// rowLen is the encoded size of r — exact but for a TIMESTAMP, which may
// come out a byte under its bound.
func rowLen(r Row) int {
	n := uvarintLen(uint64(len(r)))
	for i := range r {
		v := &r[i]
		n++
		switch v.K {
		case KindInt:
			n += uvarintLen(zigzag(v.I))
		case KindFloat:
			n += 8
		case KindString:
			n += stringLen(v.S)
		case KindBool:
			n++
		case KindTime:
			n += 1 + maxTimeLen
		case KindLink:
			n += stringLen(v.L.Server) + stringLen(v.L.Path)
		}
	}
	return n
}

func appendRow(b []byte, r Row) []byte {
	b = binary.AppendUvarint(b, uint64(len(r)))
	for i := range r {
		v := &r[i]
		b = append(b, byte(v.K))
		switch v.K {
		case KindInt:
			b = binary.AppendVarint(b, v.I)
		case KindFloat:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.F))
		case KindString:
			b = appendString(b, v.S)
		case KindBool:
			if v.B {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		case KindTime:
			tb, _ := v.T.MarshalBinary() // fails only on a zone offset beyond ±32767 minutes; reads back as malformed
			b = append(append(b, byte(len(tb))), tb...)
		case KindLink:
			b = appendString(appendString(b, v.L.Server), v.L.Path)
		}
	}
	return b
}

// encodePayload lays p out in one buffer sized up front.
func encodePayload(p logPayload) []byte {
	n := 3 + stringLen(p.Table) + uvarintLen(uint64(p.Row)) + rowLen(p.Before) + rowLen(p.After) +
		uvarintLen(uint64(len(p.Cols))) + stringLen(p.Col)
	for i := range p.Cols {
		n += stringLen(p.Cols[i].Name) + 5 + uvarintLen(zigzag(int64(p.Cols[i].DL.TokenTTLSecs)))
	}
	b := make([]byte, 0, n)
	b = append(b, payloadMagic, payloadVersion, byte(p.Op))
	b = appendString(b, p.Table)
	b = binary.AppendUvarint(b, uint64(p.Row))
	b = appendRow(b, p.Before)
	b = appendRow(b, p.After)
	b = binary.AppendUvarint(b, uint64(len(p.Cols)))
	for i := range p.Cols {
		c := &p.Cols[i]
		var flags byte
		if c.PrimaryKey {
			flags |= colPrimaryKey
		}
		if c.NotNull {
			flags |= colNotNull
		}
		if c.DL.Recovery {
			flags |= colRecovery
		}
		b = appendString(b, c.Name)
		b = append(b, byte(c.Kind), flags, byte(c.DL.Mode.Integrity), byte(c.DL.Mode.Read), byte(c.DL.Mode.Write))
		b = binary.AppendVarint(b, int64(c.DL.TokenTTLSecs))
	}
	return appendString(b, p.Col)
}

// payloadReader consumes a payload front to back. The first malformed field
// sets err — naming the top-level field being read — and every later read
// returns zero values, so a decoder checks once, at the end. Nothing is sized
// by a claim that was not first checked against the bytes remaining.
type payloadReader struct {
	b     []byte
	field string
	err   error
}

func (r *payloadReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrBadPayload, r.field)
	}
	r.b = nil
}

func (r *payloadReader) take(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *payloadReader) byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *payloadReader) uvarint() uint64 {
	x, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) { // short, overflowing, or not minimal
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return x
}

func (r *payloadReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *payloadReader) str() string { return string(r.take(r.uvarint())) }

// count reads an element count, refusing one the remaining bytes cannot hold
// at minBytes per element.
func (r *payloadReader) count(minBytes int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minBytes) {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *payloadReader) row() Row {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	row := make(Row, n)
	for i := range row {
		v := &row[i]
		v.K = Kind(r.byte())
		switch v.K {
		case KindNull:
		case KindInt:
			v.I = r.varint()
		case KindFloat:
			if b := r.take(8); b != nil {
				v.F = math.Float64frombits(binary.LittleEndian.Uint64(b))
			}
		case KindString:
			v.S = r.str()
		case KindBool:
			b := r.byte()
			if b > 1 {
				r.fail()
			}
			v.B = b == 1
		case KindTime:
			tb := r.take(uint64(r.byte()))
			// Only the bytes MarshalBinary would write for the same instant
			// are accepted (UnmarshalBinary takes more than that).
			if err := v.T.UnmarshalBinary(tb); err != nil {
				r.fail()
			} else if again, err := v.T.MarshalBinary(); err != nil || !bytes.Equal(again, tb) {
				r.fail()
			}
		case KindLink:
			v.L = datalink.Link{Server: r.str(), Path: r.str()}
		default:
			r.fail()
		}
		if r.err != nil {
			return nil
		}
	}
	return row
}

// minColumnLen is the least a column occupies: an empty name, kind, flags,
// three mode bytes, a zero TTL.
const minColumnLen = 7

func (r *payloadReader) columns() []Column {
	n := r.count(minColumnLen)
	if n == 0 {
		return nil
	}
	cols := make([]Column, n)
	for i := range cols {
		c := &cols[i]
		c.Name = r.str()
		c.Kind = Kind(r.byte())
		flags := r.byte()
		if c.Kind > KindLink || flags >= colRecovery<<1 {
			r.fail()
		}
		c.PrimaryKey = flags&colPrimaryKey != 0
		c.NotNull = flags&colNotNull != 0
		c.DL.Recovery = flags&colRecovery != 0
		if m := r.take(3); m != nil {
			c.DL.Mode = datalink.ControlMode{Integrity: datalink.IntegrityOpt(m[0]), Read: datalink.AccessCtl(m[1]), Write: datalink.AccessCtl(m[2])}
		}
		c.DL.TokenTTLSecs = int(r.varint())
		if r.err != nil {
			return nil
		}
	}
	return cols
}

// decodePayload is the inverse of encodePayload. A payload that does not
// start with 0x00 was logged before PR 18 and goes to the gob decoder.
func decodePayload(b []byte) (logPayload, error) {
	if len(b) == 0 || b[0] != payloadMagic {
		return decodeGobPayload(b)
	}
	var p logPayload
	r := payloadReader{b: b[1:], field: "version"}
	if r.byte() != payloadVersion {
		r.fail()
	}
	r.field = "op"
	p.Op = dmlKind(r.byte())
	if p.Op < opInsert || p.Op > opDropIndex {
		r.fail()
	}
	r.field = "table name"
	p.Table = r.str()
	r.field = "row id"
	p.Row = RowID(r.uvarint())
	r.field = "before row"
	p.Before = r.row()
	r.field = "after row"
	p.After = r.row()
	r.field = "column list"
	p.Cols = r.columns()
	r.field = "index column"
	p.Col = r.str()
	r.field = "trailing bytes"
	if len(r.b) > 0 {
		r.fail()
	}
	if r.err != nil {
		return logPayload{}, r.err
	}
	return p, nil
}

// decodeGobPayload reads the gob form of a logPayload: read-only, for log
// segments written before PR 18. Nothing encodes it any more.
func decodeGobPayload(b []byte) (logPayload, error) {
	var p logPayload
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&p); err != nil {
		return logPayload{}, fmt.Errorf("%w: gob: %v", ErrBadPayload, err)
	}
	return p, nil
}
