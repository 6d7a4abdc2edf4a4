package wal

import (
	"encoding/binary"
	"fmt"
)

// Data-replication ship payloads. A follower's log interleaves its own data
// records with RecShip wrappers whose After field carries one of these
// payloads: a single raw frame of some origin node's log, tagged with the
// origin's ID, the frame's origin LSN, and the origin's rebuild generation,
// or a reset marker opening a wholesale resync (the follower clears its
// state for that origin before applying what follows). The wrapped frame is
// shipped byte-identical to what the origin appended, so a replica can both
// rebuild the origin's partitions (decode + apply) and hand the exact bytes
// back to the scrubber when the origin's copy bit-rots.
//
// The generation disambiguates origin log numberings: a rebuild after total
// durable loss renumbers the origin's log from LSN 1, so frames of different
// generations at the same LSN are unrelated records. Followers retain
// whatever generations they were shipped; readers keep only the newest
// generation present (see the rebuild and scrub paths in cluster/datarep.go).
//
// Wire format (all little-endian):
//
//	[0:4]   Origin node ID
//	[4:12]  LSN (the frame's LSN in the origin's log; 0 on a reset marker)
//	[12:20] Gen (the origin's rebuild generation)
//	[20]    flags (bit 0: reset marker, bit 1: frame present)
//	[21:25] len(Frame)
//	[25:]   Frame
//
// A reset marker carries no frame and no LSN; a data payload carries both.
// Decoding is canonical: unknown flags, contradictory flag/length pairs, or
// stray trailing bytes all fail.

// ShipFrame is one unit of the replicated data stream.
type ShipFrame struct {
	Origin uint32 // origin node ID
	LSN    uint64 // origin log LSN of Frame (0 on a reset marker)
	Gen    uint64 // origin rebuild generation (renumbering epoch)
	Reset  bool   // wholesale resync: clear follower state for Origin first
	Frame  []byte // raw origin frame bytes (nil on a reset marker)
}

const shipHeaderSize = 25

const (
	shipFlagReset = 1 << 0
	shipFlagFrame = 1 << 1
)

// EncodeShipFrame appends f's wire encoding to dst and returns the extended
// slice.
func EncodeShipFrame(dst []byte, f *ShipFrame) []byte {
	var hdr [shipHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], f.Origin)
	binary.LittleEndian.PutUint64(hdr[4:12], f.LSN)
	binary.LittleEndian.PutUint64(hdr[12:20], f.Gen)
	if f.Reset {
		hdr[20] |= shipFlagReset
	}
	if f.Frame != nil {
		hdr[20] |= shipFlagFrame
	}
	binary.LittleEndian.PutUint32(hdr[21:25], uint32(len(f.Frame)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, f.Frame...)
	return dst
}

// appendShipWrapper appends the framed RecShip record r (no Key, no Before)
// whose After image is f's ship payload, encoding the payload in place: the
// bytes equal appendFrame of r with After = EncodeShipFrame(nil, f), but
// the payload — and the origin frame inside it — is never staged in a slice
// of its own first.
func appendShipWrapper(dst []byte, r *Record, f *ShipFrame) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderSize)...)
	dst = appendRecordHeader(dst, r, shipHeaderSize+len(f.Frame), true)
	return sealFrame(EncodeShipFrame(dst, f), start)
}

// DecodeShipFrame parses one ship payload occupying the whole of buf.
// Decoded slices are copies, not aliases.
func DecodeShipFrame(buf []byte) (*ShipFrame, error) {
	if len(buf) < shipHeaderSize {
		return nil, fmt.Errorf("wal: ship payload truncated (%d bytes)", len(buf))
	}
	f := &ShipFrame{
		Origin: binary.LittleEndian.Uint32(buf[0:4]),
		LSN:    binary.LittleEndian.Uint64(buf[4:12]),
		Gen:    binary.LittleEndian.Uint64(buf[12:20]),
	}
	flags := buf[20]
	if flags&^(shipFlagReset|shipFlagFrame) != 0 {
		return nil, fmt.Errorf("wal: unknown ship flags %#x", flags)
	}
	f.Reset = flags&shipFlagReset != 0
	n := int(binary.LittleEndian.Uint32(buf[21:25]))
	body := buf[shipHeaderSize:]
	if n < 0 || len(body) != n {
		return nil, fmt.Errorf("wal: ship frame length %d over %d body bytes", n, len(body))
	}
	if flags&shipFlagFrame != 0 {
		f.Frame = append([]byte{}, body...)
	} else if n != 0 {
		return nil, fmt.Errorf("wal: %d frame bytes on a payload flagged frame=nil", n)
	}
	if f.Reset {
		if f.Frame != nil || f.LSN != 0 {
			return nil, fmt.Errorf("wal: reset marker carrying a frame or LSN")
		}
	} else if f.Frame == nil {
		return nil, fmt.Errorf("wal: ship payload with neither frame nor reset")
	}
	return f, nil
}
