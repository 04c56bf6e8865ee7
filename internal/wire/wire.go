// Package wire implements the prototype's message format (paper §5.1,
// Table 1) and its framing over TCP streams.
//
// Every message carries: a transaction ID identifying the (partial)
// payment, a message type, the complete source-routed path, the probed
// capacity information accumulated along the path, and the committed
// amount of funds. Messages are exchanged as length-prefixed binary
// frames in big-endian byte order, after a hello in which the dialing
// node names itself (AppendHello).
//
// Beyond Table 1 the format carries two reproduction-motivated
// extensions: the reverse-direction
// balances (Algorithm 1 records both directions of a probed channel)
// and per-hop fee rates (§3.2: fee information is collected during
// probing).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/topo"
)

// Type enumerates the protocol's message types (§5.1).
type Type uint8

// Message types. The Probe pair implements balance collection; the
// Commit/Confirm/Reverse triples implement the two-phase commit.
const (
	TypeInvalid    Type = iota
	TypeProbe           // sender → receiver: collect per-hop balances
	TypeProbeAck        // receiver → sender: probed balances coming back
	TypeCommit          // phase 1: reserve funds along the path
	TypeCommitAck       // receiver → sender: all hops reserved
	TypeCommitNack      // failing hop → sender: reservation failed, prefix rolled back
	TypeConfirm         // phase 2: finalise a reserved sub-payment
	TypeConfirmAck      // receiver → sender: finalised, reverse balances credited
	TypeReverse         // phase 2 alternative: roll back a reserved sub-payment
	TypeReverseAck      // receiver → sender: rollback complete
	typeMax
)

var typeNames = [...]string{
	"INVALID", "PROBE", "PROBE_ACK", "COMMIT", "COMMIT_ACK",
	"COMMIT_NACK", "CONFIRM", "CONFIRM_ACK", "REVERSE", "REVERSE_ACK",
}

// String returns the protocol name of the type.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Valid reports whether t is a defined message type.
func (t Type) Valid() bool { return t > TypeInvalid && t < typeMax }

// Message is one protocol message (Table 1).
type Message struct {
	// TransID uniquely identifies a (partial) payment. Multipath
	// sub-payments get distinct IDs from the same sender.
	TransID uint64
	// Type is the message type.
	Type Type
	// Path is the complete source route. Forward messages run
	// Path[0]→Path[len-1]; acknowledgement types carry the reversed
	// path, exactly as the prototype "replaces the Path field with the
	// reversed version of the forward path".
	Path []topo.NodeID
	// Pos is the index (into Path) of the node the message is currently
	// at; the receiver of a frame is Path[Pos].
	Pos uint16
	// Capacity accumulates, per forward hop, the probed available
	// balance (PROBE) — Table 1's Capacity field.
	Capacity []float64
	// ReverseCap accumulates the reverse-direction balances (extension
	// for Algorithm 1 lines 20–22).
	ReverseCap []float64
	// FeeRate accumulates per-hop proportional fee rates (extension,
	// §3.2).
	FeeRate []float64
	// Commit is the amount of funds this message commits, confirms or
	// reverses — Table 1's Commit field.
	Commit float64
}

// Framing and sanity limits.
const (
	// MaxPathLen bounds source routes; offchain paths are short (the
	// paper's topologies have diameters well under 20).
	MaxPathLen = 1024
	// MaxFrameSize bounds a whole frame, derived from MaxPathLen.
	MaxFrameSize = 64 * 1024
	// frameHeaderLen is the size of a frame's big-endian length prefix.
	frameHeaderLen = 4
)

// Errors returned by the codec.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrameSize")
	ErrMalformed     = errors.New("wire: malformed message")
)

// helloLen is the size of a hello: helloMagic, then the dialing node's
// ID as a big-endian uint32.
const helloLen = 8

var helloMagic = [4]byte{'F', 'L', 'S', 'H'}

// AppendHello appends the hello a dialer writes first on a new
// connection, naming itself so the acceptor can write on the same
// connection. A hello is not a frame and carries no message.
func AppendHello(buf []byte, id topo.NodeID) []byte {
	buf = append(buf, helloMagic[:]...)
	return binary.BigEndian.AppendUint32(buf, uint32(id))
}

// ReadHello reads exactly one hello from r and returns the node it
// names. A hello with the wrong magic is ErrMalformed; a stream that
// ends inside it is io.ErrUnexpectedEOF.
func ReadHello(r io.Reader) (topo.NodeID, error) {
	var b [helloLen]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	if [4]byte(b[:4]) != helloMagic {
		return 0, fmt.Errorf("%w: bad hello %x", ErrMalformed, b)
	}
	return topo.NodeID(binary.BigEndian.Uint32(b[4:])), nil
}

// Next returns the node the message visits after the current one, or -1
// at the end of the path.
func (m *Message) Next() topo.NodeID {
	if int(m.Pos)+1 < len(m.Path) {
		return m.Path[m.Pos+1]
	}
	return -1
}

// Prev returns the node before the current one, or -1 at the start.
func (m *Message) Prev() topo.NodeID {
	if m.Pos > 0 && int(m.Pos) <= len(m.Path) {
		return m.Path[m.Pos-1]
	}
	return -1
}

// Current returns the node the message is at.
func (m *Message) Current() topo.NodeID {
	if int(m.Pos) < len(m.Path) {
		return m.Path[m.Pos]
	}
	return -1
}

// AtEnd reports whether the message has reached the last path node.
func (m *Message) AtEnd() bool { return int(m.Pos) == len(m.Path)-1 }

// CopyFrom makes m a deep copy of src, reusing m's backing arrays where
// they are large enough, so a receiver that copies every message into
// the same Message stops allocating once they have grown; nothing in m
// aliases src afterwards. It is how a message that is about to be reused
// for the next frame is handed to another goroutine.
func (m *Message) CopyFrom(src *Message) {
	m.TransID, m.Type, m.Pos, m.Commit = src.TransID, src.Type, src.Pos, src.Commit
	m.Path = append(m.Path[:0], src.Path...)
	m.Capacity = append(m.Capacity[:0], src.Capacity...)
	m.ReverseCap = append(m.ReverseCap[:0], src.ReverseCap...)
	m.FeeRate = append(m.FeeRate[:0], src.FeeRate...)
}

// AppendFrame appends m to buf as one length-prefixed frame, written in a
// single pass, and returns the extended buffer. It allocates only when
// buf lacks capacity, so a sender that passes its previous frame back as
// buf[:0] stops allocating once the buffer fits its largest frame.
func AppendFrame(buf []byte, m *Message) ([]byte, error) {
	if len(m.Path) > MaxPathLen {
		return nil, fmt.Errorf("%w: path length %d", ErrMalformed, len(m.Path))
	}
	if len(m.Capacity) > MaxPathLen || len(m.ReverseCap) > MaxPathLen || len(m.FeeRate) > MaxPathLen {
		return nil, fmt.Errorf("%w: capacity vector too long", ErrMalformed)
	}
	if !m.Type.Valid() {
		return nil, fmt.Errorf("%w: invalid type %d", ErrMalformed, m.Type)
	}
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length prefix, patched below
	buf = binary.BigEndian.AppendUint64(buf, m.TransID)
	buf = append(buf, byte(m.Type))
	buf = binary.BigEndian.AppendUint16(buf, m.Pos)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Path)))
	for _, u := range m.Path {
		buf = binary.BigEndian.AppendUint32(buf, uint32(u))
	}
	for _, vec := range [...][]float64{m.Capacity, m.ReverseCap, m.FeeRate} {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(vec)))
		for _, v := range vec {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.Commit))
	body := len(buf) - start - frameHeaderLen
	if body > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(body))
	return buf, nil
}

// Encode serialises the message as a newly allocated length-prefixed
// frame.
func Encode(m *Message) ([]byte, error) {
	return AppendFrame(make([]byte, 0, 64+8*len(m.Path)), m)
}

// Decode parses a frame body produced by Encode into a new Message.
func Decode(body []byte) (*Message, error) {
	m := &Message{}
	if err := DecodeInto(m, body); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeInto parses a frame body into m, overwriting every field. The
// backing arrays of m's Path, Capacity, ReverseCap and FeeRate are reused
// when they are large enough, so a receiver that decodes every frame into
// the same Message stops allocating once they have grown; nothing in m
// aliases body afterwards. A frame whose Commit is negative, NaN or
// infinite is malformed. On error m's contents are unspecified.
func DecodeInto(m *Message, body []byte) error {
	d := decoder{buf: body}
	m.TransID = d.uint64()
	m.Type = Type(d.uint8())
	m.Pos = d.uint16()
	pathLen := int(d.uint16())
	if pathLen > MaxPathLen {
		return fmt.Errorf("%w: path length %d", ErrMalformed, pathLen)
	}
	// Take the elements' bytes before sizing the slice, so a truncated
	// frame cannot make the decoder allocate for a length it only claims.
	raw := d.take(4 * pathLen)
	m.Path = resize(m.Path, len(raw)/4)
	for i := range m.Path {
		m.Path[i] = topo.NodeID(binary.BigEndian.Uint32(raw[4*i:]))
	}
	for _, vec := range [...]*[]float64{&m.Capacity, &m.ReverseCap, &m.FeeRate} {
		vlen := int(d.uint16())
		if vlen > MaxPathLen {
			return fmt.Errorf("%w: vector length %d", ErrMalformed, vlen)
		}
		raw := d.take(8 * vlen)
		*vec = resize(*vec, len(raw)/8)
		for i := range *vec {
			(*vec)[i] = math.Float64frombits(binary.BigEndian.Uint64(raw[8*i:]))
		}
	}
	m.Commit = math.Float64frombits(d.uint64())
	if d.failed {
		return fmt.Errorf("%w: truncated frame", ErrMalformed)
	}
	if len(d.buf) != d.off {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.buf)-d.off)
	}
	if !m.Type.Valid() {
		return fmt.Errorf("%w: invalid type %d", ErrMalformed, m.Type)
	}
	if int(m.Pos) >= pathLen && pathLen > 0 {
		return fmt.Errorf("%w: position %d outside path of %d", ErrMalformed, m.Pos, pathLen)
	}
	// Every hop moves balances by Commit: a negative or non-finite amount
	// would mint funds or poison them.
	if !(m.Commit >= 0) || math.IsInf(m.Commit, 1) {
		return fmt.Errorf("%w: commit amount %v", ErrMalformed, m.Commit)
	}
	return nil
}

// resize returns s with length n, keeping its backing array when that is
// large enough. A nil s stays nil at n == 0, so decoding into a fresh
// Message leaves absent vectors nil.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// readBufSize is a Reader's buffer: room for any frame over a path of up
// to 18 nodes, and small enough that a node's few hundred connections do
// not show in its resident set (4 KB each did).
const readBufSize = 512

// Reader reads frames from a stream through one buffer it owns, so a
// frame that has arrived whole costs one Read on the stream instead of
// one for the length prefix and one for the body.
type Reader struct {
	src  io.Reader
	buf  []byte // replaced by a larger one only when a frame does not fit
	r, w int    // buf[r:w] is read from src and not yet consumed
}

// NewReader returns a Reader on src.
func NewReader(src io.Reader) *Reader {
	return &Reader{src: src, buf: make([]byte, readBufSize)}
}

// ReadMessage reads the next frame and decodes it into m as DecodeInto
// does. It returns io.EOF only when the stream ends on a frame boundary.
func (fr *Reader) ReadMessage(m *Message) error {
	if err := fr.fill(frameHeaderLen); err != nil {
		return err
	}
	n := int(binary.BigEndian.Uint32(fr.buf[fr.r:]))
	if n > MaxFrameSize {
		return ErrFrameTooLarge
	}
	if err := fr.fill(frameHeaderLen + n); err != nil {
		return err
	}
	body := fr.buf[fr.r+frameHeaderLen : fr.r+frameHeaderLen+n]
	fr.r += frameHeaderLen + n
	return DecodeInto(m, body)
}

// fill reads from the stream until at least n unconsumed bytes are
// buffered. Before it reads it moves them (less than one frame, usually
// nothing) to the front of the buffer, or of a larger one if n demands
// it, so every Read is offered the whole buffer.
func (fr *Reader) fill(n int) error {
	if fr.w-fr.r >= n {
		return nil
	}
	dst := fr.buf
	if n > len(dst) {
		dst = make([]byte, n)
	}
	fr.w = copy(dst, fr.buf[fr.r:fr.w])
	fr.r, fr.buf = 0, dst
	got, err := io.ReadAtLeast(fr.src, fr.buf[fr.w:], n-(fr.w-fr.r))
	fr.w += got
	if err == io.EOF && fr.w > fr.r {
		err = io.ErrUnexpectedEOF // the stream ended inside a frame
	}
	return err
}

// decoder is a bounds-checked big-endian reader.
type decoder struct {
	buf    []byte
	off    int
	failed bool
}

func (d *decoder) take(n int) []byte {
	if d.failed || d.off+n > len(d.buf) {
		d.failed = true
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) uint8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) uint16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *decoder) uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}
