// Package sim provides the simulated cost accounting used throughout the
// reproduction.
//
// The paper's quantitative results (VLDB J. 4(3) §5–§6) are driven by counts
// of object-manager events — ROT lookups, swizzle/unswizzle operations, RRL
// maintenance, descriptor indirections, page faults — multiplied by CPU costs
// calibrated on the original hardware (Sun SPARCstation 1+). A faithful Go
// port cannot reproduce 1993 absolute timings, so every object-manager
// operation is charged against a Meter with a CostTable whose defaults are
// the paper's calibrated constants (Tables 5, 6, 8; Figures 11a/11b; FC =
// 33.2 µs). Experiments therefore report two sets of numbers: simulated
// microseconds (deterministic, directly comparable to the paper) and wall
// time from testing.B benches (shape check on real hardware).
package sim

import "fmt"

// Counter enumerates the events the object manager records.
type Counter int

// The counters. Keep Strings in sync.
const (
	CntROTLookup Counter = iota
	CntROTHit
	CntROTMiss
	CntObjectFault
	CntPageFault
	CntPageRead
	CntPageWrite
	CntServerRoundTrip
	CntSwizzleDirect
	CntSwizzleIndirect
	CntUnswizzleDirect
	CntUnswizzleIndirect
	CntDescAlloc
	CntDescFree
	CntDescInvalidate
	CntRRLAlloc
	CntRRLFree
	CntRRLInsert
	CntRRLRemove
	CntTranslate
	CntFetchCall
	CntLookupInt
	CntLookupRef
	CntUpdateInt
	CntUpdateRef
	CntDeref
	CntResidencyCheck
	CntReswizzle
	CntObjectEvict
	CntPageEvict
	CntSnowballLoad
	CntIndexProbe
	CntLargeObjectAccess
	CntSwizzleRejected
	numCounters
)

var counterNames = [...]string{
	"rot_lookups", "rot_hits", "rot_misses",
	"object_faults", "page_faults", "page_reads", "page_writes",
	"server_round_trips",
	"swizzle_direct", "swizzle_indirect", "unswizzle_direct", "unswizzle_indirect",
	"desc_alloc", "desc_free", "desc_invalidate",
	"rrl_alloc", "rrl_free", "rrl_insert", "rrl_remove",
	"translate", "fetch_call",
	"lookup_int", "lookup_ref", "update_int", "update_ref",
	"deref", "residency_check", "reswizzle",
	"object_evict", "page_evict", "snowball_load",
	"index_probe", "large_object_access", "swizzle_rejected",
}

// String returns the snake_case name of the counter.
func (c Counter) String() string {
	if c < 0 || int(c) >= len(counterNames) {
		return fmt.Sprintf("counter(%d)", int(c))
	}
	return counterNames[c]
}

// NumCounters is the number of distinct counters.
const NumCounters = int(numCounters)

// CostTable holds the per-event CPU costs in microseconds. The defaults are
// the constants the paper calibrated on its benchmark environment (§5.1.1,
// §5.2.1). Costs for composite operations (e.g. a NOS lookup) are derived in
// the layers that perform them by summing these atomic charges.
type CostTable struct {
	// FieldAccess is the base cost to read a field of a resident, already
	// dereferenced object, including the LRU flagging the object manager
	// performs on every access (Table 5: EDS int lookup, 3.6 µs).
	FieldAccess float64
	// RefFieldExtra is the additional cost when the field holds an 8-byte
	// reference rather than a 4-byte int (Table 5: 6.7 − 3.6 = 3.1 µs).
	RefFieldExtra float64
	// LazyCheck is the software check that determines the state of a
	// reference under lazy swizzling (Table 5: LDS − EDS = 0.4 µs).
	LazyCheck float64
	// Indirection is the descriptor indirection plus residency check paid by
	// indirect swizzling (Table 5: EIS − EDS = 0.7 µs).
	Indirection float64
	// ROTLookup is the hash lookup in the resident object table paid by
	// no-swizzling on every access (Table 5: NOS − EDS = 19.8 µs).
	ROTLookup float64
	// MarkDirty is the extra cost of an update over a lookup: marking the
	// object modified for write-back (Fig. 11b: EDS update 29.4 − lookup
	// 3.6 = 25.8 µs).
	MarkDirty float64
	// RRLMaintain is the per-entry cost to register/unregister a reference
	// in a reverse reference list (Table 6 slope: ≈ 4.3 µs per fan-in step,
	// split between insert and remove).
	RRLMaintain float64
	// RRLAlloc / RRLFree are the costs to allocate and destroy an RRL block
	// (Table 6, fi = 0 direct: 85.1 µs total round trip vs 59.2 at fi = 1:
	// the difference, ≈ 25.9, is alloc+free; split evenly).
	RRLAlloc, RRLFree float64
	// SwizzleDirect / UnswizzleDirect: base costs at fan-in 1 (Table 6:
	// 59.2 µs round trip, split evenly), excluding per-entry RRL
	// maintenance which is charged separately.
	SwizzleDirect, UnswizzleDirect float64
	// SwizzleIndirect / UnswizzleIndirect: Table 6, fi ≥ 1: 33.6 µs round
	// trip, constant in fan-in, split evenly.
	SwizzleIndirect, UnswizzleIndirect float64
	// DescAlloc / DescFree: allocating and reclaiming a descriptor
	// (Table 6, fi = 0 indirect: 62.2 vs 33.6 → 28.6 µs; split evenly).
	DescAlloc, DescFree float64
	// FetchCall is the late-binding call of the type-specific fetch
	// procedure (§5.2.1: 33.2 µs).
	FetchCall float64
	// Translate is the layout translation cost matrix (Table 8); indexed
	// by [from][to] using the Strategy numbering of internal/swizzle
	// mirrored here as small ints (see costmodel for the full matrix).
	// The common cases used at runtime:
	TranslateSwizzledToOID float64 // e.g. EIS → NOS: 2.8 µs (strip to OID)
	TranslateOIDToSwizzled float64 // e.g. NOS → EIS: 18.0–21.1 µs (needs ROT)
	TranslateSwizzled      float64 // swizzled → differently swizzled: 2.3–2.8 µs
	// PageIO is the simulated cost of one page transfer from the server
	// including the round trip (dominates cold runs; the paper's cold
	// traversals are "I/O bound", §6.3).
	PageIO float64
	// ObjectCopy is the cost to copy an object between the page buffer and
	// the object cache in the copy architecture (§6.6.2).
	ObjectCopy float64
	// IndexProbe is the cost of one B-tree/hash probe (substrate constant,
	// not from the paper).
	IndexProbe float64
}

// DefaultCosts returns the paper-calibrated cost table (all values µs).
func DefaultCosts() CostTable {
	return CostTable{
		FieldAccess:       3.6,
		RefFieldExtra:     3.1,
		LazyCheck:         0.4,
		Indirection:       0.7,
		ROTLookup:         19.8,
		MarkDirty:         25.8,
		RRLMaintain:       4.3,
		RRLAlloc:          13.0,
		RRLFree:           12.9,
		SwizzleDirect:     29.6,
		UnswizzleDirect:   29.6,
		SwizzleIndirect:   16.8,
		UnswizzleIndirect: 16.8,
		DescAlloc:         14.3,
		DescFree:          14.3,
		FetchCall:         33.2,

		TranslateSwizzledToOID: 2.8,
		TranslateOIDToSwizzled: 19.6,
		TranslateSwizzled:      2.55,

		PageIO:     20000, // 20 ms per page, early-90s disk + server round trip
		ObjectCopy: 10.0,
		IndexProbe: 15.0,
	}
}

// picosPerMicro converts the public microsecond interface to the internal
// integer picosecond representation. Integer accumulation is associative:
// charges add up to the same total in any order and any grouping, which
// float64 summation would not.
const picosPerMicro = 1e6

// Picos is a simulated duration in the meter's internal unit.
type Picos int64

func toPicos(us float64) Picos {
	if us < 0 {
		return -Picos(-us*picosPerMicro + 0.5)
	}
	return Picos(us*picosPerMicro + 0.5)
}

// HitCosts are the charges of a dereference that finds its object resident
// (Table 5) and of a reference copied between variables (Table 8), converted
// to Picos once by NewMeter. The object manager charges several of them per
// operation, and converting a float per event was most of what an event
// cost. The composite entries are rounded from the same float sums the
// per-event conversion rounded, so the totals are bit-identical.
type HitCosts struct {
	FieldAccess   Picos // int/string/cardinality read
	RefRead       Picos // FieldAccess + RefFieldExtra
	IntUpdate     Picos // FieldAccess + MarkDirty
	RefFieldExtra Picos // variable-to-variable copy
	LazyCheck     Picos
	Indirection   Picos
	ROTLookup     Picos

	TranslateSwizzledToOID Picos
	TranslateOIDToSwizzled Picos
	TranslateSwizzled      Picos
	DescAlloc, DescFree    Picos
}

func hitCosts(c *CostTable) HitCosts {
	return HitCosts{
		FieldAccess:   toPicos(c.FieldAccess),
		RefRead:       toPicos(c.FieldAccess + c.RefFieldExtra),
		IntUpdate:     toPicos(c.FieldAccess + c.MarkDirty),
		RefFieldExtra: toPicos(c.RefFieldExtra),
		LazyCheck:     toPicos(c.LazyCheck),
		Indirection:   toPicos(c.Indirection),
		ROTLookup:     toPicos(c.ROTLookup),

		TranslateSwizzledToOID: toPicos(c.TranslateSwizzledToOID),
		TranslateOIDToSwizzled: toPicos(c.TranslateOIDToSwizzled),
		TranslateSwizzled:      toPicos(c.TranslateSwizzled),
		DescAlloc:              toPicos(c.DescAlloc),
		DescFree:               toPicos(c.DescFree),
	}
}

// Meter accumulates simulated time and event counts for one client /
// application run. It is not safe for concurrent use: like the object
// manager that charges it, it has one owner goroutine.
type Meter struct {
	costs  CostTable
	hit    HitCosts
	picos  int64
	counts [NumCounters]int64
}

// NewMeter returns a meter charging against the given cost table.
func NewMeter(costs CostTable) *Meter {
	return &Meter{costs: costs, hit: hitCosts(&costs)}
}

// Costs returns the meter's cost table.
func (m *Meter) Costs() *CostTable { return &m.costs }

// Hit returns the resident-dereference charges in the meter's own unit,
// for ChargeP and EventP.
func (m *Meter) Hit() *HitCosts { return &m.hit }

// Micros returns the simulated time accumulated so far, in microseconds.
func (m *Meter) Micros() float64 { return float64(m.picos) / picosPerMicro }

// Count returns the current value of one counter.
func (m *Meter) Count(c Counter) int64 { return m.counts[c] }

// Add records n occurrences of the counter without charging time.
func (m *Meter) Add(c Counter, n int64) { m.counts[c] += n }

// Charge adds simulated microseconds without touching counters.
func (m *Meter) Charge(us float64) { m.picos += int64(toPicos(us)) }

// ChargeP is Charge for an amount already in the meter's unit.
func (m *Meter) ChargeP(p Picos) { m.picos += int64(p) }

// Event records one occurrence of c and charges us microseconds.
func (m *Meter) Event(c Counter, us float64) { m.EventP(c, toPicos(us)) }

// EventP is Event for an amount already in the meter's unit.
func (m *Meter) EventP(c Counter, p Picos) {
	m.counts[c]++
	m.picos += int64(p)
}

// Reset zeroes the meter.
func (m *Meter) Reset() {
	m.picos = 0
	m.counts = [NumCounters]int64{}
}

// Snapshot captures the meter state for later diffing.
type Snapshot struct {
	Micros float64
	Counts [NumCounters]int64
}

// Snapshot returns the current state.
func (m *Meter) Snapshot() Snapshot {
	return Snapshot{Micros: m.Micros(), Counts: m.counts}
}

// Since returns the delta between the current state and an earlier snapshot.
func (m *Meter) Since(s Snapshot) Snapshot {
	cur := m.Snapshot()
	d := Snapshot{Micros: cur.Micros - s.Micros}
	for i := range d.Counts {
		d.Counts[i] = cur.Counts[i] - s.Counts[i]
	}
	return d
}

// Count returns one counter from the snapshot.
func (s Snapshot) Count(c Counter) int64 { return s.Counts[c] }

// String renders the non-zero counters of a snapshot.
func (s Snapshot) String() string {
	out := fmt.Sprintf("simulated %.1fµs", s.Micros)
	for i, v := range s.Counts {
		if v != 0 {
			out += fmt.Sprintf(" %s=%d", Counter(i), v)
		}
	}
	return out
}
