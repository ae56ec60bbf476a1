// Package soc is a functional system-on-chip simulation framework — the
// reproduction's stand-in for Renode (§II-B): it assembles machines
// from a bus, memories and peripherals, runs the same firmware a real
// SoC would, and exposes introspection hooks for interactive
// development and CI. The paper's Renode enhancement — simulating
// Custom Function Units next to the CPU — is reproduced through the
// riscv.CFU port.
package soc

import (
	"fmt"
	"sort"

	"vedliot/internal/riscv"
)

// Device is a bus-mapped peripheral handling word-aligned access at
// region-relative offsets.
type Device interface {
	Name() string
	Size() uint32
	Read32(off uint32) (uint32, error)
	Write32(off uint32, v uint32) error
}

// region is one address-space mapping. size caches dev.Size() so the
// lookup makes no interface call.
type region struct {
	base uint32
	size uint32
	dev  Device
}

// Bus routes core accesses to mapped devices. It implements riscv.Bus
// and riscv.RAMWindow. A Bus is not safe for concurrent use: lookups
// remember the region they last hit.
type Bus struct {
	regions []region
	last    int // index of the region the previous lookup hit
}

// Map attaches a device at base. Regions must not overlap.
func (b *Bus) Map(base uint32, dev Device) error {
	end := uint64(base) + uint64(dev.Size())
	if end > 1<<32 {
		return fmt.Errorf("soc: %s at %#x overflows address space", dev.Name(), base)
	}
	for _, r := range b.regions {
		rEnd := uint64(r.base) + uint64(r.size)
		if uint64(base) < rEnd && end > uint64(r.base) {
			return fmt.Errorf("soc: %s at %#x overlaps %s at %#x", dev.Name(), base, r.dev.Name(), r.base)
		}
	}
	b.regions = append(b.regions, region{base, dev.Size(), dev})
	sort.Slice(b.regions, func(i, j int) bool { return b.regions[i].base < b.regions[j].base })
	return nil
}

// find returns the region holding addr, trying the last hit first (any
// index is only a guess, so Map may reorder regions under it).
// addr-base wraps past size when addr lies below base, so one unsigned
// compare tests both ends of a region.
func (b *Bus) find(addr uint32) (*region, error) {
	if b.last < len(b.regions) {
		if r := &b.regions[b.last]; addr-r.base < r.size {
			return r, nil
		}
	}
	for i := range b.regions {
		if r := &b.regions[i]; addr-r.base < r.size {
			b.last = i
			return r, nil
		}
	}
	return nil, fmt.Errorf("soc: bus fault at %#x", addr)
}

// RAMWindow implements riscv.RAMWindow: the lowest-based RAM on the
// bus, whose bytes the core may then read and write directly.
func (b *Bus) RAMWindow() (uint32, []byte) {
	for _, r := range b.regions {
		if ram, ok := r.dev.(*RAM); ok {
			return r.base, ram.data
		}
	}
	return 0, nil
}

// Read32 implements riscv.Bus. Unaligned word reads are assembled from
// byte accesses within one device.
func (b *Bus) Read32(addr uint32) (uint32, error) {
	r, err := b.find(addr)
	if err != nil {
		return 0, err
	}
	off := addr - r.base
	if off%4 == 0 {
		return r.dev.Read32(off)
	}
	var v uint32
	for i := uint32(0); i < 4; i++ {
		bv, err := b.Read8(addr + i)
		if err != nil {
			return 0, err
		}
		v |= uint32(bv) << (8 * i)
	}
	return v, nil
}

// Read16 implements riscv.Bus.
func (b *Bus) Read16(addr uint32) (uint16, error) {
	lo, err := b.Read8(addr)
	if err != nil {
		return 0, err
	}
	hi, err := b.Read8(addr + 1)
	if err != nil {
		return 0, err
	}
	return uint16(lo) | uint16(hi)<<8, nil
}

// Read8 implements riscv.Bus.
func (b *Bus) Read8(addr uint32) (uint8, error) {
	r, err := b.find(addr)
	if err != nil {
		return 0, err
	}
	off := addr - r.base
	w, err := r.dev.Read32(off &^ 3)
	if err != nil {
		return 0, err
	}
	return uint8(w >> (8 * (off & 3))), nil
}

// Write32 implements riscv.Bus.
func (b *Bus) Write32(addr uint32, v uint32) error {
	r, err := b.find(addr)
	if err != nil {
		return err
	}
	off := addr - r.base
	if off%4 == 0 {
		return r.dev.Write32(off, v)
	}
	for i := uint32(0); i < 4; i++ {
		if err := b.Write8(addr+i, uint8(v>>(8*i))); err != nil {
			return err
		}
	}
	return nil
}

// Write16 implements riscv.Bus.
func (b *Bus) Write16(addr uint32, v uint16) error {
	if err := b.Write8(addr, uint8(v)); err != nil {
		return err
	}
	return b.Write8(addr+1, uint8(v>>8))
}

// Write8 implements riscv.Bus (read-modify-write on the device word).
func (b *Bus) Write8(addr uint32, v uint8) error {
	r, err := b.find(addr)
	if err != nil {
		return err
	}
	off := addr - r.base
	word := off &^ 3
	old, err := r.dev.Read32(word)
	if err != nil {
		return err
	}
	shift := 8 * (off & 3)
	nv := old&^(0xff<<shift) | uint32(v)<<shift
	return r.dev.Write32(word, nv)
}

var (
	_ riscv.Bus       = (*Bus)(nil)
	_ riscv.RAMWindow = (*Bus)(nil)
)
