// Package storage implements the physical layer of WattDB following Fig. 4
// of the paper: fixed-size slotted pages grouped into segments, the unit of
// distribution among nodes. Page bytes are real — records and B*-tree nodes
// are encoded into them — while I/O timing is supplied by internal/hw.
package storage

import (
	"encoding/binary"
	"fmt"
)

// PageType tags the content of a page.
type PageType byte

const (
	PageFree PageType = iota
	PageLeaf
	PageInner
	PageMeta
)

// Page header layout (little-endian):
//
//	[0]     type
//	[1]     flags (unused)
//	[2:4]   slot count
//	[4:6]   cellStart: lowest byte offset used by cell data
//	[6:8]   fragmented (reclaimable) bytes
//	[8:12]  right sibling page number + 1 (0 = none)
//	[12:20] page LSN
//	[20:24] reserved
const (
	pageHeaderSize = 24
	slotSize       = 4
)

// Page is a byte-slice view of one slotted page. The slice must have been
// initialised by Init (or come from another Page).
type Page []byte

// Init formats the page with the given type and no slots.
func (p Page) Init(t PageType) {
	for i := range p {
		p[i] = 0
	}
	p[0] = byte(t)
	binary.LittleEndian.PutUint16(p[4:6], uint16(len(p)))
}

// Type returns the page type.
func (p Page) Type() PageType { return PageType(p[0]) }

// NumSlots returns the number of cells on the page.
func (p Page) NumSlots() int { return int(binary.LittleEndian.Uint16(p[2:4])) }

func (p Page) cellStart() int { return int(binary.LittleEndian.Uint16(p[4:6])) }
func (p Page) frag() int      { return int(binary.LittleEndian.Uint16(p[6:8])) }

func (p Page) setNumSlots(n int)  { binary.LittleEndian.PutUint16(p[2:4], uint16(n)) }
func (p Page) setCellStart(o int) { binary.LittleEndian.PutUint16(p[4:6], uint16(o)) }
func (p Page) setFrag(f int)      { binary.LittleEndian.PutUint16(p[6:8], uint16(f)) }

// RightSibling returns the leaf-chain successor page number, ok=false if none.
func (p Page) RightSibling() (PageNo, bool) {
	v := binary.LittleEndian.Uint32(p[8:12])
	if v == 0 {
		return 0, false
	}
	return PageNo(v - 1), true
}

// SetRightSibling links the page to its leaf-chain successor.
func (p Page) SetRightSibling(no PageNo) {
	binary.LittleEndian.PutUint32(p[8:12], uint32(no)+1)
}

// ClearRightSibling removes the leaf-chain link.
func (p Page) ClearRightSibling() { binary.LittleEndian.PutUint32(p[8:12], 0) }

// LSN returns the page LSN (recovery bookkeeping).
func (p Page) LSN() uint64 { return binary.LittleEndian.Uint64(p[12:20]) }

// SetLSN stores the page LSN.
func (p Page) SetLSN(lsn uint64) { binary.LittleEndian.PutUint64(p[12:20], lsn) }

func (p Page) slotOff(i int) int { return pageHeaderSize + i*slotSize }

func (p Page) slot(i int) (off, length int) {
	so := p.slotOff(i)
	return int(binary.LittleEndian.Uint16(p[so : so+2])), int(binary.LittleEndian.Uint16(p[so+2 : so+4]))
}

func (p Page) setSlot(i, off, length int) {
	so := p.slotOff(i)
	binary.LittleEndian.PutUint16(p[so:so+2], uint16(off))
	binary.LittleEndian.PutUint16(p[so+2:so+4], uint16(length))
}

// Cell returns the bytes of slot i. The slice aliases the page; callers must
// copy before retaining.
func (p Page) Cell(i int) []byte {
	off, ln := p.slot(i)
	return p[off : off+ln]
}

// FreeSpace returns the bytes available for one new cell plus its slot,
// after compaction.
func (p Page) FreeSpace() int {
	return p.cellStart() - (pageHeaderSize + p.NumSlots()*slotSize) + p.frag()
}

// CanFit reports whether a cell of n bytes fits on the page.
func (p Page) CanFit(n int) bool { return p.FreeSpace() >= n+slotSize }

// InsertCellAt inserts cell at slot index i (shifting later slots up).
// It returns false if the page cannot fit the cell.
func (p Page) InsertCellAt(i int, cell []byte) bool {
	n := p.NumSlots()
	if i < 0 || i > n {
		panic(fmt.Sprintf("storage: insert at slot %d of %d", i, n))
	}
	if !p.CanFit(len(cell)) {
		return false
	}
	contiguous := p.cellStart() - (pageHeaderSize + n*slotSize)
	if contiguous < len(cell)+slotSize {
		p.compact()
	}
	// Shift slot directory entries [i, n) up by one.
	copy(p[p.slotOff(i+1):p.slotOff(n+1)], p[p.slotOff(i):p.slotOff(n)])
	off := p.cellStart() - len(cell)
	copy(p[off:], cell)
	p.setCellStart(off)
	p.setSlot(i, off, len(cell))
	p.setNumSlots(n + 1)
	return true
}

// DeleteCellAt removes slot i, leaving its cell bytes as fragmentation.
func (p Page) DeleteCellAt(i int) {
	n := p.NumSlots()
	if i < 0 || i >= n {
		panic(fmt.Sprintf("storage: delete slot %d of %d", i, n))
	}
	_, ln := p.slot(i)
	copy(p[p.slotOff(i):p.slotOff(n-1)], p[p.slotOff(i+1):p.slotOff(n)])
	p.setNumSlots(n - 1)
	p.setFrag(p.frag() + ln)
}

// ReplaceCellAt replaces the cell at slot i, returning false if the new cell
// cannot fit.
func (p Page) ReplaceCellAt(i int, cell []byte) bool {
	off, ln := p.slot(i)
	if len(cell) <= ln {
		copy(p[off:off+len(cell)], cell)
		p.setSlot(i, off, len(cell))
		p.setFrag(p.frag() + ln - len(cell))
		return true
	}
	// Delete + reinsert at the same index.
	n := p.NumSlots()
	contiguousAfterDelete := p.cellStart() - (pageHeaderSize + (n-1)*slotSize)
	if contiguousAfterDelete+p.frag()+ln < len(cell)+slotSize {
		return false
	}
	p.DeleteCellAt(i)
	if !p.InsertCellAt(i, cell) {
		panic("storage: replace lost cell after space check")
	}
	return true
}

// compact rewrites all cells flush against the page end, clearing
// fragmentation.
func (p Page) compact() {
	n := p.NumSlots()
	cells := make([][]byte, n)
	for i := 0; i < n; i++ {
		c := p.Cell(i)
		cp := make([]byte, len(c))
		copy(cp, c)
		cells[i] = cp
	}
	end := len(p)
	for i := n - 1; i >= 0; i-- {
		end -= len(cells[i])
		copy(p[end:], cells[i])
		p.setSlot(i, end, len(cells[i]))
	}
	p.setCellStart(end)
	p.setFrag(0)
}
