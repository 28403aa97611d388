package core

import (
	"gom/internal/metrics"
	"gom/internal/object"
	"gom/internal/swizzle"
)

// Publication of the observability counts. A resident dereference counts
// two or three events — a read, a use of the variable's context, a use of
// the field's — and as atomic adds on the shared registry they were a
// fifth of what the dereference cost. The manager therefore counts into
// plain fields of its own and adds them to the registry at the
// boundaries it already has: an object fault, Commit, BeginApplication,
// Reset, Discard, a call of Metrics, and every publishEvery events, so a
// monitor reading the registry from elsewhere lags the manager by no more
// than that. Totals are exact: after any of the boundaries the registry
// holds what per-event adds would have put there.

// publishEvery bounds how many counted events the manager holds back from
// the registry.
const publishEvery = 1024

// ctxScore is the manager's handle on one scoreboard entry: the shared
// entry and what this manager has counted on it since it last published.
type ctxScore struct {
	shared *metrics.Score
	pend   [metrics.NumScoreKinds]int64
}

// typeScores are the slot handles of one type, by field index (nil for
// fields that hold no reference).
type typeScores struct {
	typ    *object.Type
	fields []*ctxScore
}

// count records one occurrence of a registry counter that the hit path
// touches (structural-only events go to the registry directly).
func (om *OM) count(c metrics.Counter) {
	if om.obs == nil {
		return
	}
	om.pendCtr[c]++
	om.counted()
}

// scoreInc records one scoreboard event in a context (nil: no registry).
func (om *OM) scoreInc(sc *ctxScore, k metrics.ScoreKind) {
	if sc == nil {
		return
	}
	sc.pend[k]++
	om.counted()
}

func (om *OM) counted() {
	if om.pendN++; om.pendN >= publishEvery {
		om.publish()
	}
}

// publish adds what the manager has counted since the last call to the
// registry.
func (om *OM) publish() {
	if om.pendN == 0 {
		return
	}
	om.pendN = 0
	for c := range om.pendCtr {
		if n := om.pendCtr[c]; n != 0 {
			om.obs.AddN(metrics.Counter(c), n)
			om.pendCtr[c] = 0
		}
	}
	for _, sc := range om.scores {
		for k := range sc.pend {
			if n := sc.pend[k]; n != 0 {
				sc.shared.Add(metrics.ScoreKind(k), n)
				sc.pend[k] = 0
			}
		}
	}
}

// scoreHandle returns the manager's handle on a scoreboard entry, one per
// entry however many specs resolve to it.
func (om *OM) scoreHandle(shared *metrics.Score) *ctxScore {
	sc := om.scoreOf[shared]
	if sc == nil {
		sc = &ctxScore{shared: shared}
		om.scoreOf[shared] = sc
		om.scores = append(om.scores, sc)
	}
	return sc
}

// buildScoreTab precomputes the per-type slot handles of the swizzle
// scoreboard: scoreTab[type id].fields[field] is the handle of the context
// "Type.field" (nil for non-reference fields). Built when the registry is
// installed, so the dereference hot path does two indexed loads per event,
// with no map probe and no allocation.
func (om *OM) buildScoreTab() {
	om.scoreTab, om.scores = nil, nil
	om.scoreOf = make(map[*metrics.Score]*ctxScore)
	if om.obs == nil {
		return
	}
	om.scoreTab = make([]typeScores, len(om.schema.Types()))
	for _, t := range om.schema.Types() {
		fields := make([]*ctxScore, t.NumFields())
		for i, f := range t.Fields() {
			if f.Kind == object.KindRef || f.Kind == object.KindRefSet {
				fields[i] = om.scoreHandle(om.obs.Score(f.Target, t.Name+"."+f.Name))
			}
		}
		om.scoreTab[t.ID] = typeScores{typ: t, fields: fields}
	}
}

// slotScore resolves the scoreboard handle of a field or set-element
// slot. Variable slots return nil — variables carry their own handle.
func (om *OM) slotScore(s object.Slot) *ctxScore {
	if s.IsVar() {
		return nil
	}
	t := s.Home.Type
	if int(t.ID) >= len(om.scoreTab) {
		return nil
	}
	ts := &om.scoreTab[t.ID]
	if ts.typ != t || s.Field >= len(ts.fields) {
		return nil
	}
	return ts.fields[s.Field]
}

// labelScoreStrategies stamps every scoreboard context with the
// strategy the active spec installs for it, so drift reports can name
// the installed strategy without re-resolving the spec.
func (om *OM) labelScoreStrategies() {
	for _, ts := range om.scoreTab {
		for i, sc := range ts.fields {
			if sc != nil {
				sc.shared.SetStrategy(om.spec.ForField(ts.typ, i).String())
			}
		}
	}
}

// swizzleCounter maps a strategy to its swizzle{strategy} metrics counter.
// NOS never swizzles; it maps to -1 and callers must not record it (the
// swizzle paths are only reached for strategies with Swizzles() true).
func swizzleCounter(st swizzle.Strategy) metrics.Counter {
	switch st {
	case swizzle.EDS:
		return metrics.CtrSwizzleEDS
	case swizzle.EIS:
		return metrics.CtrSwizzleEIS
	case swizzle.LDS:
		return metrics.CtrSwizzleLDS
	case swizzle.LIS:
		return metrics.CtrSwizzleLIS
	}
	return -1
}
