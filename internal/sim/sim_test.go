package sim

import (
	"strings"
	"testing"
)

func TestCounterNames(t *testing.T) {
	seen := map[string]bool{}
	for c := Counter(0); int(c) < NumCounters; c++ {
		name := c.String()
		if name == "" || strings.HasPrefix(name, "counter(") {
			t.Errorf("counter %d has no name", c)
		}
		if seen[name] {
			t.Errorf("duplicate counter name %q", name)
		}
		seen[name] = true
	}
	if !strings.HasPrefix(Counter(999).String(), "counter(") {
		t.Error("out-of-range counter name")
	}
}

func TestMeterChargesAndCounts(t *testing.T) {
	m := NewMeter(DefaultCosts())
	m.Event(CntROTLookup, 19.8)
	m.Event(CntROTLookup, 19.8)
	m.Add(CntROTHit, 1)
	m.Charge(0.4)
	if m.Count(CntROTLookup) != 2 || m.Count(CntROTHit) != 1 {
		t.Errorf("counts = %d, %d", m.Count(CntROTLookup), m.Count(CntROTHit))
	}
	if got := m.Micros(); got < 39.9 || got > 40.1 {
		t.Errorf("micros = %f", got)
	}
	m.Reset()
	if m.Micros() != 0 || m.Count(CntROTLookup) != 0 {
		t.Error("reset incomplete")
	}
}

func TestSnapshotDiff(t *testing.T) {
	m := NewMeter(DefaultCosts())
	m.Event(CntPageFault, 20000)
	s := m.Snapshot()
	m.Event(CntPageFault, 20000)
	m.Event(CntSwizzleDirect, 29.6)
	d := m.Since(s)
	if d.Count(CntPageFault) != 1 || d.Count(CntSwizzleDirect) != 1 {
		t.Errorf("diff counts wrong: %v", d)
	}
	if d.Micros < 20029 || d.Micros > 20030 {
		t.Errorf("diff micros = %f", d.Micros)
	}
	if !strings.Contains(d.String(), "page_faults=1") {
		t.Errorf("snapshot string = %q", d.String())
	}
}

// TestDefaultCostsMatchPaperTables checks the calibration identities noted
// in the CostTable docs against the paper's Tables 5 and 6.
func TestDefaultCostsMatchPaperTables(t *testing.T) {
	c := DefaultCosts()
	near := func(got, want float64) bool { d := got - want; return d < 0.05 && d > -0.05 }
	// Table 5, int lookups.
	if !near(c.FieldAccess, 3.6) {
		t.Errorf("EDS int lookup = %f", c.FieldAccess)
	}
	if !near(c.FieldAccess+c.LazyCheck, 4.0) {
		t.Errorf("LDS int lookup = %f", c.FieldAccess+c.LazyCheck)
	}
	if !near(c.FieldAccess+c.Indirection, 4.3) {
		t.Errorf("EIS int lookup = %f", c.FieldAccess+c.Indirection)
	}
	if !near(c.FieldAccess+c.Indirection+c.LazyCheck, 4.7) {
		t.Errorf("LIS int lookup = %f", c.FieldAccess+c.Indirection+c.LazyCheck)
	}
	if !near(c.FieldAccess+c.ROTLookup, 23.4) {
		t.Errorf("NOS int lookup = %f", c.FieldAccess+c.ROTLookup)
	}
	// Table 5, reference lookups = int + RefFieldExtra.
	if !near(c.FieldAccess+c.RefFieldExtra, 6.7) {
		t.Errorf("EDS ref lookup = %f", c.FieldAccess+c.RefFieldExtra)
	}
	// Table 6: swizzle+unswizzle round trips.
	if !near(c.SwizzleDirect+c.UnswizzleDirect, 59.2) {
		t.Errorf("direct SW+US = %f", c.SwizzleDirect+c.UnswizzleDirect)
	}
	if !near(c.SwizzleIndirect+c.UnswizzleIndirect, 33.6) {
		t.Errorf("indirect SW+US = %f", c.SwizzleIndirect+c.UnswizzleIndirect)
	}
	if !near(c.SwizzleDirect+c.UnswizzleDirect+c.RRLAlloc+c.RRLFree, 85.1) {
		t.Errorf("direct SW+US at fan-in 0 = %f",
			c.SwizzleDirect+c.UnswizzleDirect+c.RRLAlloc+c.RRLFree)
	}
	if !near(c.SwizzleIndirect+c.UnswizzleIndirect+c.DescAlloc+c.DescFree, 62.2) {
		t.Errorf("indirect SW+US at fan-in 0 = %f",
			c.SwizzleIndirect+c.UnswizzleIndirect+c.DescAlloc+c.DescFree)
	}
	// §5.2.1: FC = 33.2 µs.
	if !near(c.FetchCall, 33.2) {
		t.Errorf("FC = %f", c.FetchCall)
	}
}

// TestHitCostsMatchPerEventConversion: the charges NewMeter converts once
// must be the amounts the per-event conversion produced, composites
// included — a meter charged through EventP/ChargeP reads bit for bit what
// one charged through Event/Charge with the same table reads.
func TestHitCostsMatchPerEventConversion(t *testing.T) {
	c := DefaultCosts()
	perEvent, once := NewMeter(c), NewMeter(c)
	h := once.Hit()
	for i := 0; i < 1000; i++ {
		perEvent.Event(CntLookupInt, c.FieldAccess)
		perEvent.Event(CntLookupRef, c.FieldAccess+c.RefFieldExtra)
		perEvent.Event(CntUpdateInt, c.FieldAccess+c.MarkDirty)
		perEvent.Event(CntROTLookup, c.ROTLookup)
		perEvent.Event(CntTranslate, c.TranslateSwizzled)
		perEvent.Charge(c.LazyCheck)
		perEvent.Charge(c.Indirection)
		perEvent.Event(CntTranslate, c.TranslateOIDToSwizzled)
		perEvent.Charge(c.RefFieldExtra)

		once.EventP(CntLookupInt, h.FieldAccess)
		once.EventP(CntLookupRef, h.RefRead)
		once.EventP(CntUpdateInt, h.IntUpdate)
		once.EventP(CntROTLookup, h.ROTLookup)
		once.EventP(CntTranslate, h.TranslateSwizzled)
		once.ChargeP(h.LazyCheck)
		once.ChargeP(h.Indirection)
		once.EventP(CntTranslate, h.TranslateOIDToSwizzled)
		once.ChargeP(h.RefFieldExtra)
	}
	if a, b := perEvent.Snapshot(), once.Snapshot(); a != b {
		t.Errorf("converted once: %v\nper event:     %v", b, a)
	}
}
