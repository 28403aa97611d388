package core

import (
	"gom/internal/object"
	"gom/internal/sim"
	"gom/internal/storage"
)

// Create allocates a new persistent object of the given type in a segment
// and assigns a reference to it to the variable. The object is resident
// (registered in the ROT) afterwards; its creation is not charged
// swizzling-specific costs (§6.1.2: "there is no swizzling-specific cost
// in creating an object" — the subsequent initialization writes are
// ordinary Updates).
func (om *OM) Create(typ *object.Type, seg uint16, v *Var) error {
	defer om.endOp(om.startOp(spanCreate))
	return om.create(typ, seg, v, nil)
}

// CreateNear is Create with a clustering hint: the new object is placed on
// the neighbor's page when possible (§6.6.3).
func (om *OM) CreateNear(typ *object.Type, seg uint16, v, neighbor *Var) error {
	defer om.endOp(om.startOp(spanCreate))
	return om.create(typ, seg, v, neighbor)
}

func (om *OM) create(typ *object.Type, seg uint16, v, neighbor *Var) error {
	if err := v.valid(om); err != nil {
		return err
	}
	if err := om.takeDeferredErr(); err != nil {
		return err
	}
	blank := object.New(typ, 0)
	rec, err := object.Encode(blank)
	if err != nil {
		return err
	}
	var (
		id   = blank.OID
		addr storage.PAddr
	)
	if neighbor != nil && !neighbor.ref.IsNil() {
		nid := neighbor.ref.TargetOID()
		id2, a, aerr := om.srv.AllocateNear(seg, nid, rec)
		if aerr != nil {
			return aerr
		}
		id, addr = id2, a
	} else {
		id2, a, aerr := om.srv.Allocate(seg, rec)
		if aerr != nil {
			return aerr
		}
		id, addr = id2, a
	}
	om.meter.Add(sim.CntServerRoundTrip, 1)

	// The buffered copy of the target page, if any, predates the insert;
	// refresh it so the page image and the server agree.
	if om.pool.Contains(addr.Page) {
		if err := om.pool.Refresh(addr.Page); err != nil {
			return err
		}
	}

	obj := object.New(typ, id)
	obj.Page, obj.Slot = addr.Page, addr.Slot
	om.rot.Register(obj)
	if om.cache != nil {
		if err := om.cache.Put(obj); err != nil {
			om.rot.Unregister(id)
			return err
		}
	} else {
		// Page architecture: a resident object's page must be buffered.
		if _, err := om.pool.Get(addr.Page); err != nil {
			om.rot.Unregister(id)
			return err
		}
		om.byPage[addr.Page] = append(om.byPage[addr.Page], obj)
	}

	om.unregisterSlot(object.VarSlot(&v.ref))
	v.ref = object.OIDRef(id)
	strat := v.ctx.strategy
	if strat.Swizzles() && !(om.lazyUponDereference && strat.Lazy()) {
		return om.swizzleSlot(object.VarSlot(&v.ref), strat, v.ctx.score)
	}
	return nil
}
