package wal

import (
	"bytes"
	"fmt"
	"testing"

	"wattdb/internal/cc"
)

// FuzzRecordRoundTrip checks the log record wire codec: every record —
// including the prepare-time DML images and coordinator decision records of
// in-doubt 2PC recovery — must round-trip exactly, preserving the
// nil-versus-empty distinction of its image fields (a nil Before means "key
// did not exist", which recovery must never confuse with an empty value),
// and Size() must equal the encoded length.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(7), uint64(0), uint64(3), byte(RecUpdate),
		[]byte("key"), true, []byte("old"), true, []byte("new"))
	f.Add(uint64(2), uint64(7), uint64(0), uint64(3), byte(RecInsert),
		[]byte("key"), false, []byte(nil), true, []byte("new"))
	f.Add(uint64(3), uint64(9), uint64(0), uint64(0), byte(RecCommit),
		[]byte(nil), false, []byte(nil), false, []byte(nil))
	f.Add(uint64(4), uint64(9), uint64(0), uint64(2), byte(RecPrepDML),
		[]byte("k"), false, []byte(nil), true, []byte("raw-payload"))
	f.Add(uint64(5), uint64(9), uint64(0), uint64(2), byte(RecPrepDel),
		[]byte("k"), false, []byte(nil), false, []byte(nil))
	f.Add(uint64(6), uint64(9), uint64(123), uint64(0), byte(RecDecision),
		[]byte(nil), false, []byte(nil), false, []byte(nil))
	f.Add(uint64(7), uint64(1), uint64(0), uint64(5), byte(RecUpdate),
		[]byte{}, true, []byte{}, true, []byte{})
	// Fuzz-found: a type byte past the last record type. Encoding never
	// produces one; the input is folded onto the defined types (unknown types
	// are FuzzDecodeRecordNoPanic's business).
	f.Add(uint64(1), uint64(23), uint64(0), uint64(2), byte('N'),
		[]byte("0"), true, []byte("0"), true, []byte("0"))

	f.Fuzz(func(t *testing.T, lsn, txn, ts, part uint64, typ byte,
		key []byte, hasBefore bool, before []byte, hasAfter bool, after []byte) {
		r := Record{
			LSN:  lsn,
			Txn:  cc.TxnID(txn),
			TS:   cc.Timestamp(ts),
			Part: part,
			Type: RecType(typ % byte(RecCkptEnd+1)),
			Key:  key,
		}
		if hasBefore {
			if before == nil {
				before = []byte{}
			}
			r.Before = before
		}
		if hasAfter {
			if after == nil {
				after = []byte{}
			}
			r.After = after
		}
		enc := EncodeRecord(nil, &r)
		if int64(len(enc)) != r.Size() {
			t.Fatalf("encoded length %d != Size() %d", len(enc), r.Size())
		}
		// Trailing bytes must be left untouched.
		dec, rest, err := DecodeRecord(append(enc, 0xAB, 0xCD))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(rest) != 2 || rest[0] != 0xAB || rest[1] != 0xCD {
			t.Fatalf("rest = %x, want ab cd", rest)
		}
		if msg := sameRecord(dec, r); msg != "" {
			t.Fatal(msg)
		}
		// The aliasing decoder must agree exactly, and its slices must not
		// reach past their own field: an append to one may not scribble over
		// the next field's bytes.
		buf := append(EncodeRecord(nil, &r), 0xAB, 0xCD)
		al, arest, aerr := decodeRecordAlias(buf)
		if aerr != nil {
			t.Fatalf("aliasing decode: %v", aerr)
		}
		if msg := sameRecord(al, r); msg != "" {
			t.Fatalf("aliasing decode: %s", msg)
		}
		if !bytes.Equal(arest, rest) {
			t.Fatalf("aliasing decode rest = %x, want %x", arest, rest)
		}
		_ = append(al.Key, 0xEE)
		_ = append(al.Before, 0xEE)
		if !bytes.Equal(buf, append(EncodeRecord(nil, &r), 0xAB, 0xCD)) {
			t.Fatal("append to an aliased field overwrote its neighbour")
		}
	})
}

// FuzzTornTailRecovery feeds the frame scanner the physical crash states
// recovery must survive: a run of valid frames followed by an arbitrary tail
// — a torn prefix of the next frame, garbage, or a bit-flipped copy of a
// complete frame. ValidPrefix (the truncation point Restart uses) must never
// panic, must keep every intact leading frame, and must consume nothing but
// whole frames.
func FuzzTornTailRecovery(f *testing.F) {
	frame := func(recs ...Record) []byte {
		var buf []byte
		for i := range recs {
			buf = appendFrame(buf, &recs[i])
		}
		return buf
	}
	r1 := Record{LSN: 1, Type: RecInsert, Txn: 1, Part: 2, Key: []byte("k"), After: []byte("v")}
	r2 := Record{LSN: 2, Type: RecCommit, Txn: 1}
	// A fuzzy-checkpoint pair: the crash states around its end record are
	// exactly the torn-pair fallback LastCheckpoint must survive.
	cb := Record{LSN: 3, Type: RecCkptBegin}
	ce := Record{LSN: 4, Type: RecCkptEnd, Part: 3,
		After: EncodeCheckpoint(nil, &Checkpoint{Begin: 3, Redo: 1, Parts: []CkptPart{{ID: 2, Redo: 1}}})}
	f.Add(frame(r1, r2), []byte{}, -1)
	f.Add(frame(r1, r2), frame(r2)[:5], -1)       // torn final record
	f.Add(frame(r1), frame(r2), 12)               // bit-flipped complete frame
	f.Add([]byte{}, []byte{0xFF, 0x00, 0xAB}, -1) // garbage-only log
	f.Add(frame(r1, r2), bytes.Repeat([]byte{0}, 64), -1)
	f.Add(frame(r1, r2, cb, ce), frame(ce)[:9], -1) // torn checkpoint-end record
	f.Add(frame(r1, r2, cb), frame(ce), 40)         // bit-flipped checkpoint end

	f.Fuzz(func(t *testing.T, valid []byte, tail []byte, flip int) {
		// Only a frame-aligned valid part models a durable prefix.
		valid = valid[:ValidPrefix(valid)]
		if flip >= 0 && len(tail) > 0 {
			tail = bytes.Clone(tail)
			bit := flip % (len(tail) * 8)
			tail[bit/8] ^= 1 << (bit % 8)
		}
		buf := append(bytes.Clone(valid), tail...)
		vp := ValidPrefix(buf)
		if vp < len(valid) {
			t.Fatalf("truncation lost intact frames: valid prefix %d < %d", vp, len(valid))
		}
		if vp > len(buf) {
			t.Fatalf("valid prefix %d over-reads %d-byte log", vp, len(buf))
		}
		// The accepted prefix must decode as whole frames, exactly to vp.
		off := 0
		for off < vp {
			_, n, err := decodeFrame(buf[off:])
			if err != nil {
				t.Fatalf("accepted prefix fails to decode at %d: %v", off, err)
			}
			off += n
		}
		if off != vp {
			t.Fatalf("frames consume %d bytes, valid prefix says %d", off, vp)
		}
		// Maximality: the truncation point must actually be damage.
		if vp < len(buf) {
			if _, _, err := decodeFrame(buf[vp:]); err == nil {
				t.Fatalf("valid frame at %d beyond the reported prefix %d", vp, vp)
			}
		}
	})
}

// FuzzCheckpointCodec checks the checkpoint payload codec both ways: an
// encoded Checkpoint must round-trip exactly, and arbitrary bytes must be
// rejected with an error — never a panic or a giant allocation — since
// restart feeds LastCheckpoint whatever a crash left in a RecCkptEnd record.
func FuzzCheckpointCodec(f *testing.F) {
	f.Add(uint64(3), uint64(1), uint64(2), uint64(1), uint64(9), uint64(4), []byte{})
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), []byte{})
	f.Add(uint64(7), uint64(5), uint64(1), uint64(5), uint64(2), uint64(6),
		EncodeCheckpoint(nil, &Checkpoint{Begin: 7, Redo: 5}))
	f.Add(uint64(1), uint64(1), uint64(1), uint64(1), uint64(1), uint64(1),
		bytes.Repeat([]byte{0xFF}, ckptHeaderSize)) // implausible entry counts
	f.Fuzz(func(t *testing.T, begin, redo, partID, partRedo, txn, first uint64, raw []byte) {
		ck := Checkpoint{
			Begin: begin,
			Redo:  redo,
			Parts: []CkptPart{{ID: partID, Redo: partRedo}},
			Txns:  []CkptTxn{{Txn: cc.TxnID(txn), First: first}},
		}
		enc := EncodeCheckpoint(nil, &ck)
		dec, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("round-trip decode: %v", err)
		}
		if dec.Begin != ck.Begin || dec.Redo != ck.Redo ||
			len(dec.Parts) != 1 || dec.Parts[0] != ck.Parts[0] ||
			len(dec.Txns) != 1 || dec.Txns[0] != ck.Txns[0] {
			t.Fatalf("round trip mismatch: %+v vs %+v", dec, ck)
		}
		if dec.PartRedo(partID) != partRedo {
			t.Fatalf("PartRedo(%d) = %d, want %d", partID, dec.PartRedo(partID), partRedo)
		}
		// Decoding is canonical: any trailing or missing byte is corruption.
		if _, err := DecodeCheckpoint(enc[:len(enc)-1]); err == nil {
			t.Fatal("truncated payload accepted")
		}
		if _, err := DecodeCheckpoint(append(bytes.Clone(enc), 0)); err == nil {
			t.Fatal("oversized payload accepted")
		}
		// Arbitrary bytes: error or a structurally sound checkpoint.
		if ck2, err := DecodeCheckpoint(raw); err == nil {
			if len(ck2.Parts) > maxCkptEntries || len(ck2.Txns) > maxCkptEntries {
				t.Fatalf("decoder accepted implausible entry counts: %d parts, %d txns",
					len(ck2.Parts), len(ck2.Txns))
			}
		}
	})
}

// FuzzDecodeRecordNoPanic feeds arbitrary bytes to the decoder: it must
// reject garbage with an error, never panic or over-read.
func FuzzDecodeRecordNoPanic(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, recHeaderSize))
	f.Add(EncodeRecord(nil, &Record{Type: RecPrepDML, Txn: 1, Key: []byte("k"), After: []byte("v")}))
	// Fuzz-found: non-canonical flag bits must be rejected, or decode(encode)
	// stops being the identity on the consumed prefix.
	f.Add(append(bytes.Repeat([]byte{0x30}, 34), make([]byte, recHeaderSize-34)...))
	f.Fuzz(func(t *testing.T, buf []byte) {
		rec, rest, err := DecodeRecord(buf)
		// The aliasing decoder must accept and reject exactly the same
		// inputs, with the same record and the same error.
		al, arest, aerr := decodeRecordAlias(buf)
		if (err == nil) != (aerr == nil) || (err != nil && err.Error() != aerr.Error()) {
			t.Fatalf("errors differ: copying %v, aliasing %v", err, aerr)
		}
		if err != nil {
			return
		}
		if msg := sameRecord(al, rec); msg != "" {
			t.Fatalf("aliasing decode: %s", msg)
		}
		if len(arest) != len(rest) {
			t.Fatalf("aliasing decode consumed %d bytes, copying %d", len(buf)-len(arest), len(buf)-len(rest))
		}
		if len(rest) > len(buf) {
			t.Fatalf("rest longer than input")
		}
		// A successful decode must re-encode to the consumed prefix.
		enc := EncodeRecord(nil, &rec)
		if !bytes.Equal(enc, buf[:len(buf)-len(rest)]) {
			t.Fatalf("re-encode differs from consumed bytes:\n  in:  %x\n  out: %x", buf[:len(buf)-len(rest)], enc)
		}
	})
}

// sameRecord reports how got differs from want ("" when equal), including
// the nil-versus-empty distinction of the image fields.
func sameRecord(got, want Record) string {
	if got.LSN != want.LSN || got.Txn != want.Txn || got.TS != want.TS || got.Part != want.Part || got.Type != want.Type {
		return fmt.Sprintf("header mismatch: %+v vs %+v", got, want)
	}
	for _, fld := range []struct {
		name string
		a, b []byte
	}{{"key", got.Key, want.Key}, {"before", got.Before, want.Before}, {"after", got.After, want.After}} {
		if (fld.a == nil) != (fld.b == nil) {
			return fmt.Sprintf("%s nil-ness lost: decoded nil=%v, original nil=%v", fld.name, fld.a == nil, fld.b == nil)
		}
		if !bytes.Equal(fld.a, fld.b) {
			return fmt.Sprintf("%s = %x, want %x", fld.name, fld.a, fld.b)
		}
	}
	return ""
}
