package soc

import (
	"bytes"
	"math/rand"
	"testing"

	"vedliot/internal/riscv"
)

// The core serves aligned in-RAM accesses straight from the bus's RAM
// window. FuzzRAMWindowMatchesBus checks that path against the same
// core over busOnly, which hides the window, so every access of the
// reference takes the Bus: random straight-line programs of loads and
// stores must leave both machines in identical state.

// busOnly exposes only riscv.Bus, so a core over it never sees a RAM
// window.
type busOnly struct{ riscv.Bus }

// Layout of the differential machines, as offsets into RAM.
const (
	diffRAMSize  = 0x10000
	diffBody     = 0x100  // stores aimed here rewrite code ahead of the PC
	diffLocked   = 0x4000 // base of the locked NAPOT region
	diffLockSize = 0x1000
	diffHandler  = 0x8000 // trap handler: skip the faulting instruction
)

// diffTargets are the addresses generated accesses aim at. Each access
// adds an offset in [-8, 8), so every target is reached aligned,
// misaligned and straddling its edges.
var diffTargets = [...]uint32{
	RAMBase + 0x2000,                    // plain RAM
	RAMBase + diffLocked,                // inside the locked region
	RAMBase + diffLocked + diffLockSize, // its upper edge
	RAMBase + diffRAMSize - 4,           // RAM's last word: past the end
	RAMBase + diffBody,                  // code: self-modifying stores
	RAMBase,                             // RAM's first word, unmapped below
	UARTBase,
	TimerBase,
	0x2000_0000, // unmapped
	FinisherBase,
}

// diffLoadStores are the access instructions, loads then stores.
var diffLoadStores = [...]func(r, base int, imm int32) uint32{
	riscv.LB, riscv.LH, riscv.LW, riscv.LBU, riscv.LHU,
	riscv.SB, riscv.SH, riscv.SW,
}

// diffProgram builds firmware from fuzz bytes. The first byte picks the
// locked region's R/W/X permissions; every following 4 bytes are one
// access: instruction, target, offset (high nibble, signed) and value
// or destination.
// With pmp the prologue locks the NAPOT region and, for U-mode, grants
// the rest of RAM and the MMIO window through unlocked entries; with
// user it then drops to U-mode before the body.
func diffProgram(data []byte, pmp, user bool) []uint32 {
	p := &Program{}
	p.EmitLI(riscv.T0, RAMBase+diffHandler)
	p.Emit(riscv.CSRRW(0, riscv.T0, riscv.CsrMtvec))
	var perms uint32
	if len(data) > 0 {
		perms, data = uint32(data[0])&(riscv.PmpR|riscv.PmpW|riscv.PmpX), data[1:]
	}
	if pmp {
		for i, r := range [][2]uint32{
			{RAMBase + diffLocked, diffLockSize},
			{RAMBase, diffRAMSize},
			{0x1000_0000, 0x1000_0000}, // UART and timer
		} {
			p.EmitLI(riscv.T0, riscv.NAPOTAddr(r[0], r[1]))
			p.Emit(riscv.CSRRW(0, riscv.T0, riscv.CsrPmpaddr0+uint32(i)))
		}
		napot := uint32(riscv.PmpNAPOT << 3)
		cfg := (riscv.PmpL | napot | perms) |
			(napot|riscv.PmpR|riscv.PmpW|riscv.PmpX)<<8 |
			(napot|riscv.PmpR|riscv.PmpW)<<16
		p.EmitLI(riscv.T0, cfg)
		p.Emit(riscv.CSRRW(0, riscv.T0, riscv.CsrPmpcfg0))
	}
	if user {
		// mepc = the body, MPP = U, then mret.
		body := p.PC() + 7*4
		p.EmitLI(riscv.T0, body)
		p.Emit(riscv.CSRRW(0, riscv.T0, riscv.CsrMepc))
		p.EmitLI(riscv.T0, 3<<11)
		p.Emit(riscv.CSRRC(0, riscv.T0, riscv.CsrMstatus), riscv.MRET())
		if p.PC() != body {
			panic("diffProgram: U-mode entry miscounted")
		}
	}
	for ; len(data) >= 4; data = data[4:] {
		op := diffLoadStores[int(data[0])%len(diffLoadStores)]
		target := diffTargets[int(data[1])%len(diffTargets)]
		imm := int32(int8(data[2])) >> 4
		p.EmitLI(riscv.T0, target)
		if data[0]%8 >= 5 { // store
			p.EmitLI(riscv.T1, uint32(data[3])*0x9e3779b1)
			p.Emit(op(riscv.T1, riscv.T0, imm))
		} else {
			p.Emit(op(riscv.A0+int(data[3]%8), riscv.T0, imm))
		}
	}
	return p.Emit(riscv.WFI()).Words()
}

// diffHandlerWords skips the faulting instruction and returns to the
// privilege the trap came from.
var diffHandlerWords = []uint32{
	riscv.CSRRS(riscv.T6, 0, riscv.CsrMepc),
	riscv.ADDI(riscv.T6, riscv.T6, 4),
	riscv.CSRRW(0, riscv.T6, riscv.CsrMepc),
	riscv.MRET(),
}

func diffMachine(t testing.TB, fw []uint32, window bool) *Machine {
	m, err := NewMachine(Config{Name: "diff", RAMSize: diffRAMSize})
	if err != nil {
		t.Fatal(err)
	}
	if !window {
		m.Core.Bus = busOnly{m.Bus}
	}
	if len(fw)*4 > diffLocked {
		fw = fw[:diffLocked/4] // keep code clear of the locked region
	}
	if err := m.LoadFirmware(fw); err != nil {
		t.Fatal(err)
	}
	if err := m.RAM.LoadWords(diffHandler, diffHandlerWords); err != nil {
		t.Fatal(err)
	}
	if err := m.Core.Run(4096); err != nil {
		t.Fatal(err)
	}
	return m
}

// diffCompare fails unless the two machines hold identical
// architectural, accounting and device state.
func diffCompare(t testing.TB, fast, ref *Machine) {
	t.Helper()
	fc, rc := fast.Core, ref.Core
	if fc.X != rc.X {
		t.Errorf("X: window %x, bus %x", fc.X, rc.X)
	}
	if fc.PC != rc.PC || fc.Priv() != rc.Priv() || fc.Halted != rc.Halted {
		t.Errorf("PC/priv/halted: window %#x/%d/%v, bus %#x/%d/%v",
			fc.PC, fc.Priv(), fc.Halted, rc.PC, rc.Priv(), rc.Halted)
	}
	if fc.Cycles != rc.Cycles || fc.Instret != rc.Instret {
		t.Errorf("cycles/instret: window %d/%d, bus %d/%d", fc.Cycles, fc.Instret, rc.Cycles, rc.Instret)
	}
	for _, csr := range []uint32{riscv.CsrMcause, riscv.CsrMepc, riscv.CsrMtval, riscv.CsrMstatus} {
		if f, r := fc.CSR(csr), rc.CSR(csr); f != r {
			t.Errorf("csr %#x: window %#x, bus %#x", csr, f, r)
		}
	}
	if f, r := fc.PMPUnit().Checks, rc.PMPUnit().Checks; f != r {
		t.Errorf("PMP checks: window %d, bus %d", f, r)
	}
	if !bytes.Equal(fast.RAM.Bytes(), ref.RAM.Bytes()) {
		t.Error("RAM contents differ")
	}
	if f, r := fast.UART.Output(), ref.UART.Output(); f != r {
		t.Errorf("UART: window %q, bus %q", f, r)
	}
	if fast.Finisher.Done != ref.Finisher.Done || fast.Finisher.Code != ref.Finisher.Code {
		t.Errorf("finisher: window %v/%#x, bus %v/%#x",
			fast.Finisher.Done, fast.Finisher.Code, ref.Finisher.Done, ref.Finisher.Code)
	}
}

func FuzzRAMWindowMatchesBus(f *testing.F) {
	// Hand-picked seeds: words in and around the locked region, every
	// width at and past RAM's end, stores into the code ahead and UART
	// output.
	f.Add([]byte{riscv.PmpR | riscv.PmpW, 2, 0, 0, 0, 7, 1, 0, 9, 2, 1, 0x80, 3, 2, 2, 0xc0, 4})
	f.Add([]byte{0, 2, 3, 0x20, 0, 1, 3, 0x10, 1, 0, 3, 0x30, 2, 2, 3, 0x40, 3,
		7, 3, 0x20, 5, 6, 3, 0x30, 7, 5, 3, 0x40, 9})
	f.Add([]byte{riscv.PmpX, 7, 4, 0, 0x13, 6, 4, 0x40, 0x73, 5, 4, 0x70, 0xff})
	f.Add([]byte{riscv.PmpR, 2, 1, 0, 0, 7, 1, 0, 1, 7, 6, 0, 'h', 5, 6, 0, 'i', 2, 2, 0xc0, 0})
	// Pseudo-random programs, so every width meets every target under
	// plain go test.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		seed := make([]byte, 1+4*48)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, pmp := range []bool{false, true} {
			for _, user := range []bool{false, true} {
				fw := diffProgram(data, pmp, user)
				diffCompare(t, diffMachine(t, fw, true), diffMachine(t, fw, false))
				if t.Failed() {
					t.Fatalf("pmp %v user %v", pmp, user)
				}
			}
		}
	})
}
