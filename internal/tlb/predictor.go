package tlb

import (
	"mixtlb/internal/addr"
	"mixtlb/internal/pagetable"
)

// SizePredictor guesses a translation's page size before lookup, the
// enhancement of Papadopoulou et al. (HPCA'14) the paper evaluates as the
// best multi-indexing variant (Sec 5.1). It is a PC-indexed table of
// (size, 2-bit confidence) pairs: superpage usage correlates strongly with
// the instruction touching the data structure.
type SizePredictor struct {
	size []addr.PageSize
	conf []uint8
	mask uint64

	lookups uint64
	correct uint64
}

// NewSizePredictor builds a predictor with the given number of entries
// (power of two).
func NewSizePredictor(entries int) (*SizePredictor, error) {
	if entries <= 0 || !addr.IsPow2(uint64(entries)) {
		return nil, cfgErr("size-predictor", "entries must be a positive power of two, got %d", entries)
	}
	return &SizePredictor{
		size: make([]addr.PageSize, entries),
		conf: make([]uint8, entries),
		mask: uint64(entries - 1),
	}, nil
}

func (p *SizePredictor) idx(pc uint64) uint64 {
	h := pc * 0x9e3779b97f4a7c15
	return (h >> 32) & p.mask
}

// Predict returns the guessed page size for the instruction at pc.
func (p *SizePredictor) Predict(pc uint64) addr.PageSize {
	p.lookups++
	return p.size[p.idx(pc)]
}

// Update trains the predictor with the actual size after the translation
// resolves, using 2-bit hysteresis.
func (p *SizePredictor) Update(pc uint64, actual addr.PageSize) {
	i := p.idx(pc)
	if p.size[i] == actual {
		p.correct++
		if p.conf[i] < 3 {
			p.conf[i]++
		}
		return
	}
	if p.conf[i] > 0 {
		p.conf[i]--
		return
	}
	p.size[i] = actual
}

// Accuracy returns the fraction of predictions later confirmed correct.
func (p *SizePredictor) Accuracy() float64 {
	if p.lookups == 0 {
		return 0
	}
	return float64(p.correct) / float64(p.lookups)
}

// predictable is a multi-indexing TLB that can probe a guessed page size
// first: HashRehash and Skew.
type predictable interface {
	TLB
	LookupPredicted(req Request, guess addr.PageSize) Result
}

// Predicted is a multi-indexing TLB fronted by a size predictor (Sec
// 5.1): the predicted size is probed first, cutting the expected probe
// count (hash-rehash) or the ways read (skew) when prediction is accurate,
// but adding predictor energy to every lookup and a further round on
// mispredictions.
type Predicted struct {
	predictable
	pred *SizePredictor
}

// NewPredicted wraps inner (a *HashRehash or *Skew) with predictor pred.
func NewPredicted(inner predictable, pred *SizePredictor) *Predicted {
	return &Predicted{predictable: inner, pred: pred}
}

// Name implements TLB.
func (t *Predicted) Name() string { return t.predictable.Name() + "+pred" }

// Lookup implements TLB: probe the predicted size first, then the rest.
func (t *Predicted) Lookup(req Request) Result {
	guess := t.pred.Predict(req.PC)
	res := t.LookupPredicted(req, guess)
	res.Cost.PredictorReads = 1
	if res.Hit {
		t.pred.Update(req.PC, res.T.Size)
		res.Cost.PredictorWrites = 1
	}
	return res
}

// Fill implements TLB and trains the predictor with the walked size.
func (t *Predicted) Fill(req Request, walk pagetable.WalkResult) Cost {
	c := t.predictable.Fill(req, walk)
	if walk.Found {
		t.pred.Update(req.PC, walk.Translation.Size)
		c.PredictorWrites++
	}
	return c
}
