// Package optim implements the optimizers used by the paper's scale-out
// training studies — SGD with momentum, Adam, and the layer-wise
// adaptive large-batch methods LARS (Laanait et al.) and LAMB (Khan,
// Blanchard et al.) — plus LARC-style adaptive gradient clipping (Kurth et
// al.).
package optim

import (
	"math"

	"summitscale/internal/nn"
	"summitscale/internal/parallel"
	"summitscale/internal/tensor"
)

// Fused update loops shard across the persistent worker pool for large
// parameters. Every sharded loop is strictly elementwise — each index is
// read and written by exactly one shard, and the norm reductions (whose
// float association would change under sharding) stay serial — so the
// update is bit-identical at any worker count. LAMB, whose trust ratio
// needs two norms per parameter, fans out over parameters instead, each
// task running its parameter's whole serial update.
const (
	// optimShardMin is the element count above which an update loop fans
	// out (for LAMB, the element count of all parameters together).
	// Below it the loop runs inline with no pool dispatch and no closure
	// allocation, keeping the training-step alloc floor intact.
	optimShardMin = 1 << 15
	// optimShardGrain is the element chunk size for sharded updates.
	optimShardGrain = 1 << 13
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update using each parameter's current .Value.Grad.
	// Parameters with nil gradients are skipped.
	Step(params []nn.Param)
	// LR returns the current learning rate.
	LR() float64
}

// SGD is stochastic gradient descent with optional momentum and weight
// decay (L2).
type SGD struct {
	Rate        float64
	Momentum    float64
	WeightDecay float64
	velocity    map[*tensor.Tensor]*tensor.Tensor
}

// NewSGD creates plain SGD.
func NewSGD(lr float64) *SGD { return &SGD{Rate: lr} }

// NewMomentumSGD creates SGD with momentum.
func NewMomentumSGD(lr, momentum float64) *SGD {
	return &SGD{Rate: lr, Momentum: momentum}
}

// Step implements Optimizer. The decay/momentum/update arithmetic is fused
// into one pass per parameter — no intermediate tensors are materialized,
// so the training-step hot loop is allocation-free in steady state.
func (o *SGD) Step(params []nn.Param) {
	if o.velocity == nil && o.Momentum != 0 {
		o.velocity = map[*tensor.Tensor]*tensor.Tensor{}
	}
	for _, p := range params {
		if p.Value.Grad == nil {
			continue
		}
		w := p.Value.Data
		wd, gd := w.Data(), p.Value.Grad.Data()
		if o.Momentum == 0 {
			if len(wd) >= optimShardMin {
				parallel.Shared().RunRange(len(wd), optimShardGrain, func(lo, hi int) {
					sgdPlain(wd, gd, o.Rate, o.WeightDecay, lo, hi)
				})
			} else {
				sgdPlain(wd, gd, o.Rate, o.WeightDecay, 0, len(wd))
			}
			continue
		}
		v, ok := o.velocity[w]
		if !ok {
			v = tensor.New(w.Shape()...)
			o.velocity[w] = v
		}
		vd := v.Data()
		if len(wd) >= optimShardMin {
			parallel.Shared().RunRange(len(wd), optimShardGrain, func(lo, hi int) {
				sgdMomentum(wd, gd, vd, o.Rate, o.Momentum, o.WeightDecay, lo, hi)
			})
		} else {
			sgdMomentum(wd, gd, vd, o.Rate, o.Momentum, o.WeightDecay, 0, len(wd))
		}
	}
}

// sgdPlain applies the momentum-free SGD update to elements [lo, hi).
func sgdPlain(wd, gd []float64, rate, decay float64, lo, hi int) {
	if decay == 0 {
		for i := lo; i < hi; i++ {
			wd[i] -= rate * gd[i]
		}
		return
	}
	for i := lo; i < hi; i++ {
		wd[i] -= rate * (gd[i] + decay*wd[i])
	}
}

// sgdMomentum applies the fused decay+momentum update to elements [lo, hi).
func sgdMomentum(wd, gd, vd []float64, rate, momentum, decay float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		vd[i] = momentum*vd[i] + (gd[i] + decay*wd[i])
		wd[i] -= rate * vd[i]
	}
}

// LR implements Optimizer.
func (o *SGD) LR() float64 { return o.Rate }

// adamState holds per-parameter moment estimates. u is LAMB's update
// scratch, allocated once per parameter instead of once per step.
type adamState struct {
	m, v *tensor.Tensor
	u    *tensor.Tensor
}

// Adam implements the Adam optimizer.
type Adam struct {
	Rate         float64
	Beta1, Beta2 float64
	Eps          float64
	step         int
	state        map[*tensor.Tensor]*adamState
}

// NewAdam creates Adam with the customary defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{Rate: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step implements Optimizer.
func (o *Adam) Step(params []nn.Param) {
	if o.state == nil {
		o.state = map[*tensor.Tensor]*adamState{}
	}
	o.step++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.step))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.step))
	for _, p := range params {
		if p.Value.Grad == nil {
			continue
		}
		w := p.Value.Data
		st, ok := o.state[w]
		if !ok {
			st = &adamState{m: tensor.New(w.Shape()...), v: tensor.New(w.Shape()...)}
			o.state[w] = st
		}
		wd, gd := w.Data(), p.Value.Grad.Data()
		md, vd := st.m.Data(), st.v.Data()
		if len(wd) >= optimShardMin {
			parallel.Shared().RunRange(len(wd), optimShardGrain, func(lo, hi int) {
				adamRange(o, wd, gd, md, vd, bc1, bc2, lo, hi)
			})
		} else {
			adamRange(o, wd, gd, md, vd, bc1, bc2, 0, len(wd))
		}
	}
}

// adamRange applies the fused Adam update to elements [lo, hi).
func adamRange(o *Adam, wd, gd, md, vd []float64, bc1, bc2 float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		g := gd[i]
		md[i] = o.Beta1*md[i] + (1-o.Beta1)*g
		vd[i] = o.Beta2*vd[i] + (1-o.Beta2)*g*g
		mhat := md[i] / bc1
		vhat := vd[i] / bc2
		wd[i] -= o.Rate * (mhat / (math.Sqrt(vhat) + o.Eps))
	}
}

// LR implements Optimizer.
func (o *Adam) LR() float64 { return o.Rate }

// LARS is layer-wise adaptive rate scaling: each layer's update is
// rescaled by trust * ||w|| / (||g|| + wd*||w||), which keeps large-batch
// SGD stable (used by Laanait et al. with a LARS/Adam hybrid).
type LARS struct {
	Rate        float64
	Momentum    float64
	Trust       float64
	WeightDecay float64
	velocity    map[*tensor.Tensor]*tensor.Tensor
}

// NewLARS creates LARS with the paper-typical trust coefficient 0.001.
func NewLARS(lr float64) *LARS {
	return &LARS{Rate: lr, Momentum: 0.9, Trust: 0.001, WeightDecay: 1e-4}
}

// Step implements Optimizer.
func (o *LARS) Step(params []nn.Param) {
	if o.velocity == nil {
		o.velocity = map[*tensor.Tensor]*tensor.Tensor{}
	}
	for _, p := range params {
		if p.Value.Grad == nil {
			continue
		}
		w := p.Value.Data
		g := p.Value.Grad
		wNorm, gNorm := w.Norm(), g.Norm()
		localLR := 1.0
		if wNorm > 0 && gNorm > 0 {
			localLR = o.Trust * wNorm / (gNorm + o.WeightDecay*wNorm)
		}
		v, ok := o.velocity[w]
		if !ok {
			v = tensor.New(w.Shape()...)
			o.velocity[w] = v
		}
		vd, wd, gd := v.Data(), w.Data(), g.Data()
		lrEff := localLR * o.Rate
		if len(wd) >= optimShardMin {
			parallel.Shared().RunRange(len(wd), optimShardGrain, func(lo, hi int) {
				larsRange(wd, gd, vd, lrEff, o.Momentum, o.WeightDecay, lo, hi)
			})
		} else {
			larsRange(wd, gd, vd, lrEff, o.Momentum, o.WeightDecay, 0, len(wd))
		}
	}
}

// larsRange applies the trust-scaled momentum update to elements [lo, hi).
func larsRange(wd, gd, vd []float64, lrEff, momentum, decay float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		upd := gd[i] + decay*wd[i]
		vd[i] = momentum*vd[i] + lrEff*upd
		wd[i] -= vd[i]
	}
}

// LR implements Optimizer.
func (o *LARS) LR() float64 { return o.Rate }

// LAMB is the layer-wise adaptive variant of AdamW used to hold convergence
// at extreme global batch sizes (Khan et al.'s black-hole network, the
// 5.8-million-sample batches of Blanchard et al.).
type LAMB struct {
	Rate         float64
	Beta1, Beta2 float64
	Eps          float64
	WeightDecay  float64
	step         int
	state        map[*tensor.Tensor]*adamState
	// tasks holds this step's parameters and coef its constants; run is
	// the runTasks method value, bound once, so a step hands the pool no
	// fresh closure.
	tasks []lambTask
	coef  lambCoef
	run   func(lo, hi int)
}

// lambCoef holds one LAMB step's per-element constants, in the order the
// AVX2 kernel (lamb_amd64.s) reads them.
type lambCoef struct {
	b1, c1   float64 // β1 and 1-β1
	b2, c2   float64 // β2 and 1-β2
	bc1, bc2 float64 // the bias corrections 1-β1^t and 1-β2^t
	eps      float64
	decay    float64
}

// lambTask is one parameter's slice of a LAMB step.
type lambTask struct {
	w, g []float64
	st   *adamState
}

// NewLAMB creates LAMB with customary defaults.
func NewLAMB(lr float64) *LAMB {
	return &LAMB{Rate: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-6, WeightDecay: 0.01}
}

// Step implements Optimizer. Each parameter's update is one task: a pass
// in element order advances the moments, writes the raw update and sums
// w² and u² for the trust ratio, then a second pass applies the scaled
// update. Tasks touch disjoint state, and each runs exactly the serial
// per-parameter arithmetic (the norms included), so fanning the tasks
// out over the pool is bit-identical at any worker count. Below
// optimShardMin elements in all, the tasks run inline.
func (o *LAMB) Step(params []nn.Param) { o.stepOn(parallel.Shared(), params) }

// stepOn is Step fanning out over pool.
func (o *LAMB) stepOn(pool *parallel.WorkerPool, params []nn.Param) {
	if o.state == nil {
		o.state = map[*tensor.Tensor]*adamState{}
		o.run = o.runTasks
	}
	o.step++
	o.coef = lambCoef{
		b1: o.Beta1, c1: 1 - o.Beta1,
		b2: o.Beta2, c2: 1 - o.Beta2,
		bc1: 1 - math.Pow(o.Beta1, float64(o.step)),
		bc2: 1 - math.Pow(o.Beta2, float64(o.step)),
		eps: o.Eps, decay: o.WeightDecay,
	}
	total := 0
	for _, p := range params {
		if p.Value.Grad == nil {
			continue
		}
		w := p.Value.Data
		st, ok := o.state[w]
		if !ok {
			st = &adamState{m: tensor.New(w.Shape()...), v: tensor.New(w.Shape()...),
				u: tensor.New(w.Shape()...)}
			o.state[w] = st
		}
		o.tasks = append(o.tasks, lambTask{w: w.Data(), g: p.Value.Grad.Data(), st: st})
		total += w.Size()
	}
	if total >= optimShardMin {
		pool.RunRange(len(o.tasks), 1, o.run)
	} else {
		o.runTasks(0, len(o.tasks))
	}
	// Drop the gradient references: they point into the step's arena.
	clear(o.tasks)
	o.tasks = o.tasks[:0]
}

// runTasks updates the parameters of tasks [lo, hi).
func (o *LAMB) runTasks(lo, hi int) {
	for _, t := range o.tasks[lo:hi] {
		o.update(t)
	}
}

// update is one parameter's LAMB step. The sums run in element order,
// as Tensor.Norm's do, so the trust ratio is the serial one bit for bit.
// Where lambSIMD holds, the AVX2 kernels take each pass's first
// len(w)&^3 elements with the Go loop's operation order, and the Go loop
// finishes the tail from their sums.
func (o *LAMB) update(t lambTask) {
	wd, gd := t.w, t.g
	md, vd, ud := t.st.m.Data(), t.st.v.Data(), t.st.u.Data()
	n := len(wd)
	if n == 0 {
		return
	}
	// The kernels read n elements of every slice: check them here.
	_, _, _, _ = gd[n-1], md[n-1], vd[n-1], ud[n-1]
	n4 := 0
	if lambSIMD {
		n4 = n &^ 3
	}
	var wSq, uSq float64
	if n4 > 0 {
		wSq, uSq = lambMomentsAVX2(&wd[0], &gd[0], &md[0], &vd[0], &ud[0], n4, &o.coef)
	}
	k := o.coef
	b1, c1, b2, c2, bc1, bc2, eps, decay := k.b1, k.c1, k.b2, k.c2, k.bc1, k.bc2, k.eps, k.decay
	// The explicit conversions round each product on its own, so no
	// target fuses it into a multiply-add.
	for i := n4; i < n; i++ {
		w, g := wd[i], gd[i]
		m := float64(b1*md[i]) + float64(c1*g)
		v := float64(b2*vd[i]) + float64(c2*g*g)
		u := m/bc1/(math.Sqrt(v/bc2)+eps) + float64(decay*w)
		md[i], vd[i], ud[i] = m, v, u
		wSq += float64(w * w)
		uSq += float64(u * u)
	}
	wNorm, uNorm := math.Sqrt(wSq), math.Sqrt(uSq)
	ratio := 1.0
	if wNorm > 0 && uNorm > 0 {
		ratio = wNorm / uNorm
	}
	s := o.Rate * ratio
	if n4 > 0 {
		lambApplyAVX2(&wd[0], &ud[0], n4, s)
	}
	for i := n4; i < n; i++ {
		wd[i] -= float64(s * ud[i])
	}
}

// LR implements Optimizer.
func (o *LAMB) LR() float64 { return o.Rate }

// LARCClip applies LARC's per-layer adaptive clipping: each layer's
// gradient is scaled so its implied local learning rate never exceeds
// trust * ||w|| / ||g||, the "clip" variant of LARC used by Kurth et al.
func LARCClip(params []nn.Param, lr, trust float64) {
	for _, p := range params {
		if p.Value.Grad == nil {
			continue
		}
		w, g := p.Value.Data, p.Value.Grad
		wNorm, gNorm := w.Norm(), g.Norm()
		if wNorm == 0 || gNorm == 0 {
			continue
		}
		localLR := trust * wNorm / gNorm
		if localLR < lr {
			g.ScaleInPlace(localLR / lr)
		}
	}
}
