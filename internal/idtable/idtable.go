// Package idtable is a compact identity index: it maps an identity,
// keyed by a small type code and a string value, to a caller-owned
// subscriber handle and partition index. It is the storage behind the
// data location stage's identity-location map (§3.4), where bytes per
// subscriber are a first-order cost: every point of access holds one
// table for the whole subscriber base.
//
// The layout keeps the garbage collector out of it. The table is open
// addressing with linear probing over 16-byte slots that hold no
// pointers:
//
//	key  uint64  canonical decimal value inline, or arena offset<<32 | length
//	sub  uint32  subscriber handle (the caller's index)
//	part uint16  partition index (the caller's index)
//	ctrl uint8   0 empty, 1 deleted, 0x80|7-bit hash tag when live
//	kind uint8   identity type, high bit set when the value is inline
//
// A value that is a canonical decimal (1–19 digits, no leading zero,
// as IMSIs and MSISDNs are) is stored inline as a uint64; every other
// value is appended to one byte arena. Deletes leave tombstones and
// dead arena bytes; inserts never reuse a tombstone, so both are
// bounded by the slot budget and the next rehash reclaims them. The
// table starts at eight slots and doubles (or rehashes in place, or
// shrinks) when live entries plus tombstones would pass three quarters
// of the slots.
//
// The hash is fixed rather than seeded, so probe counts and layouts
// reproduce exactly. Only identities that resolved to a provisioned
// subscriber are ever inserted, so a caller cannot choose colliding
// keys.
//
// A Table is not safe for concurrent use; the zero value is empty and
// ready.
package idtable

import (
	"fmt"
	"math/bits"
	"strconv"
	"unsafe"
)

// Ref is what an identity maps to: two indexes into tables the caller
// owns.
type Ref struct {
	Sub  uint32
	Part uint16
}

// maxType bounds the identity type codes a Table accepts.
const maxType = 0x7f

const (
	minSlots   = 8
	ctrlEmpty  = 0
	ctrlDead   = 1
	ctrlLive   = 0x80
	kindInline = 0x80
)

type slot struct {
	key  uint64
	sub  uint32
	part uint16
	ctrl uint8
	kind uint8
}

// Table is the identity index. See the package comment for its layout.
type Table struct {
	slots []slot
	arena []byte
	live  int // live entries
	used  int // live entries plus tombstones
	dead  int // arena bytes no live slot references
}

// Stats sizes a table.
type Stats struct {
	// Entries counts live identities; Slots is the table capacity.
	Entries, Slots int
	// ArenaBytes is the length of the key arena, DeadBytes the part of
	// it deleted keys left behind until the next rehash.
	ArenaBytes, DeadBytes int
	// Bytes is the heap the table holds: slots and arena capacity.
	Bytes int
	// MeanProbes is the slots a hit inspects, averaged over every entry.
	MeanProbes float64
}

// key is a lookup key resolved to its stored representation.
type key struct {
	kind uint8
	num  uint64 // the inline value when kind&kindInline != 0
	str  string // the value otherwise
	hash uint64
}

func makeKey(typ uint8, value string) key {
	if n, ok := decimal(value); ok {
		kind := typ | kindInline
		return key{kind: kind, num: n, hash: hashNum(kind, n)}
	}
	return key{kind: typ, str: value, hash: hashString(typ, value)}
}

// decimal parses a canonical decimal: one to 19 digits without a
// leading zero, so the value renders back to exactly the same string.
// Longer runs (20 digits may overflow) and padded or signed numbers
// stay strings.
func decimal(s string) (uint64, bool) {
	if len(s) == 0 || len(s) > 19 || (s[0] == '0' && len(s) > 1) {
		return 0, false
	}
	var n uint64
	for i := 0; i < len(s); i++ {
		c := s[i] - '0'
		if c > 9 {
			return 0, false
		}
		n = n*10 + uint64(c)
	}
	return n, true
}

const (
	seed0 = 0xa0761d6478bd642f
	seed1 = 0xe7037ed1a0b428db
	seed2 = 0x8ebc6af09c88c6e3
)

func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

func hashNum(kind uint8, n uint64) uint64 { return mix(n^seed0, uint64(kind)^seed1) }

// hashString also takes arena bytes, so a rehash never converts them.
func hashString[T string | []byte](kind uint8, s T) uint64 {
	h := seed0 ^ uint64(len(s)) ^ uint64(kind)<<56
	for ; len(s) >= 8; s = s[8:] {
		w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		h = mix(h^w, seed1)
	}
	var tail uint64
	for i := 0; i < len(s); i++ {
		tail |= uint64(s[i]) << (8 * i)
	}
	return mix(h^tail^seed2, seed1)
}

func tag(h uint64) uint8 { return ctrlLive | uint8(h>>57) }

// matches reports whether a live slot holds k.
func (t *Table) matches(s *slot, k *key) bool {
	if s.ctrl != tag(k.hash) || s.kind != k.kind {
		return false
	}
	if k.kind&kindInline != 0 {
		return s.key == k.num
	}
	return string(arenaKey(s, t.arena)) == k.str
}

// find probes for k. It returns the slot holding k, or the first empty
// slot of its probe sequence when k is absent.
func (t *Table) find(k *key) (int, bool) {
	mask := len(t.slots) - 1
	for i := int(k.hash) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ctrl == ctrlEmpty {
			return i, false
		}
		if t.matches(s, k) {
			return i, true
		}
	}
}

// Len returns the number of live entries.
func (t *Table) Len() int { return t.live }

// Get returns the entry for an identity.
func (t *Table) Get(typ uint8, value string) (Ref, bool) {
	if t.live == 0 || typ > maxType {
		return Ref{}, false
	}
	k := makeKey(typ, value)
	i, ok := t.find(&k)
	if !ok {
		return Ref{}, false
	}
	return Ref{Sub: t.slots[i].sub, Part: t.slots[i].part}, true
}

// Put maps an identity to r and returns the entry it replaced, if any.
// typ must not exceed maxType.
func (t *Table) Put(typ uint8, value string, r Ref) (old Ref, replaced bool) {
	if typ > maxType {
		panic(fmt.Sprintf("idtable: identity type %d above %d", typ, maxType))
	}
	if (t.used+1)*4 > len(t.slots)*3 {
		t.rehash()
	}
	k := makeKey(typ, value)
	i, ok := t.find(&k)
	s := &t.slots[i]
	if ok {
		old = Ref{Sub: s.sub, Part: s.part}
		s.sub, s.part = r.Sub, r.Part
		return old, true
	}
	*s = slot{key: k.num, sub: r.Sub, part: r.Part, ctrl: tag(k.hash), kind: k.kind}
	if k.kind&kindInline == 0 {
		if len(t.arena)+len(k.str) > 1<<32-1 {
			panic("idtable: key arena above 4 GiB")
		}
		s.key = uint64(len(t.arena))<<32 | uint64(len(k.str))
		t.arena = append(t.arena, k.str...)
	}
	t.live++
	t.used++
	return Ref{}, false
}

// Delete removes an identity and returns its entry.
func (t *Table) Delete(typ uint8, value string) (old Ref, ok bool) {
	if t.live == 0 || typ > maxType {
		return Ref{}, false
	}
	k := makeKey(typ, value)
	i, ok := t.find(&k)
	if !ok {
		return Ref{}, false
	}
	s := &t.slots[i]
	old = Ref{Sub: s.sub, Part: s.part}
	t.kill(s)
	return old, true
}

func (t *Table) kill(s *slot) {
	if s.kind&kindInline == 0 {
		t.dead += int(s.key & 0xffffffff)
	}
	s.ctrl = ctrlDead
	t.live--
}

// DeleteFunc removes every entry del selects, returns how many it
// removed, and rehashes to reclaim their slots and key bytes.
func (t *Table) DeleteFunc(del func(Ref) bool) int {
	n := 0
	for i := range t.slots {
		s := &t.slots[i]
		if s.ctrl >= ctrlLive && del(Ref{Sub: s.sub, Part: s.part}) {
			t.kill(s)
			n++
		}
	}
	if n > 0 {
		t.rehash()
	}
	return n
}

// Range calls fn for every live entry in slot order.
func (t *Table) Range(fn func(typ uint8, value string, r Ref)) {
	for i := range t.slots {
		s := &t.slots[i]
		if s.ctrl >= ctrlLive {
			fn(s.kind&^kindInline, t.value(s), Ref{Sub: s.sub, Part: s.part})
		}
	}
}

// value renders a live slot's identity value.
func (t *Table) value(s *slot) string {
	if s.kind&kindInline != 0 {
		return strconv.FormatUint(s.key, 10)
	}
	return string(arenaKey(s, t.arena))
}

// arenaKey returns a non-inline slot's key bytes.
func arenaKey(s *slot, arena []byte) []byte {
	off, n := s.key>>32, s.key&0xffffffff
	return arena[off : off+n]
}

// slotHash recomputes a live slot's hash.
func slotHash(s *slot, arena []byte) uint64 {
	if s.kind&kindInline != 0 {
		return hashNum(s.kind, s.key)
	}
	return hashString(s.kind, arenaKey(s, arena))
}

// rehash rebuilds the table at the smallest power-of-two size that
// leaves the live entries at most three eighths full, dropping
// tombstones and, when deletes left any, compacting the key arena.
func (t *Table) rehash() {
	n := minSlots
	for t.live*8 > n*3 {
		n *= 2
	}
	old, oldArena := t.slots, t.arena
	t.slots = make([]slot, n)
	if t.dead > 0 {
		t.arena = make([]byte, 0, len(oldArena)-t.dead)
	}
	mask := n - 1
	for i := range old {
		s := old[i]
		if s.ctrl < ctrlLive {
			continue
		}
		h := slotHash(&s, oldArena)
		if s.kind&kindInline == 0 && t.dead > 0 {
			b := arenaKey(&s, oldArena)
			s.key = uint64(len(t.arena))<<32 | uint64(len(b))
			t.arena = append(t.arena, b...)
		}
		j := int(h) & mask
		for t.slots[j].ctrl != ctrlEmpty {
			j = (j + 1) & mask
		}
		t.slots[j] = s
	}
	t.used, t.dead = t.live, 0
}

// Stats sizes the table and measures its probe lengths.
func (t *Table) Stats() Stats {
	st := Stats{
		Entries:    t.live,
		Slots:      len(t.slots),
		ArenaBytes: len(t.arena),
		DeadBytes:  t.dead,
		Bytes:      cap(t.slots)*int(unsafe.Sizeof(slot{})) + cap(t.arena),
	}
	if t.live == 0 {
		return st
	}
	mask := len(t.slots) - 1
	probes := 0
	for i := range t.slots {
		s := &t.slots[i]
		if s.ctrl >= ctrlLive {
			probes += (i-int(slotHash(s, t.arena)))&mask + 1
		}
	}
	st.MeanProbes = float64(probes) / float64(t.live)
	return st
}
