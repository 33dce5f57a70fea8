// Package sched implements the deterministic, step-driven runtime for the
// model CAMP_n[k-SA]: processes are deterministic reactive automata whose
// externally visible actions (sends, receives, k-SA propositions and
// decisions, broadcast invocations, responses and deliveries) are executed
// one step at a time under the full control of a scheduler.
//
// The paper's proof requires this level of control twice: Algorithm 1 needs
// "p_i's next local step in C(α), according to B" (internal/adversary
// drives the runtime step by step), and Definition 1 requires executions to
// be well-formed with respect to the algorithm, which the runtime
// guarantees by construction — every recorded step is produced by running
// the algorithm's own handlers.
//
// Two kinds of code run on the runtime:
//
//   - Automaton: an implementation of a broadcast abstraction B in
//     CAMP_n[k-SA] (the algorithm 𝓑 of the paper). It reacts to broadcast
//     invocations, message receptions, and k-SA decisions by emitting
//     actions.
//   - App: an algorithm 𝓐 solving k-SA in CAMP_n[B]. It consumes
//     B-deliveries and emits B-broadcasts and one decision.
//
// Determinism contract: handlers must be pure functions of the automaton's
// state and the event; given the same event sequence they must emit the
// same actions. The runtime replays are used by the proof machinery
// (Lemma 9's indistinguishability argument), so this is load-bearing and
// covered by replay-determinism tests.
package sched

import (
	"fmt"

	"nobroadcast/internal/model"
	"nobroadcast/internal/obs"
	"nobroadcast/internal/spec"
)

// Automaton is a deterministic reactive process implementing a broadcast
// abstraction on top of send/receive and k-SA objects.
//
// Handlers emit actions through the Env. Emitted actions are queued and
// executed later, one per scheduler step; they do not take effect during
// the handler call. After calling Env.Propose, the automaton must not emit
// further actions until the matching OnDecide (propose blocks, k-SA being
// an operation with a return value); the runtime enforces this by holding
// queued actions back until the decision fires.
type Automaton interface {
	// Init is called once before any other handler.
	Init(env *Env)
	// OnBroadcast is called when the upper layer invokes B.broadcast.
	// msg is the identity of the fresh broadcast message.
	OnBroadcast(env *Env, msg model.MsgID, payload model.Payload)
	// OnReceive is called when a point-to-point message is received.
	OnReceive(env *Env, from model.ProcID, payload model.Payload)
	// OnDecide is called when a pending k-SA proposition decides.
	OnDecide(env *Env, obj model.KSAID, val model.Value)
}

// App is a deterministic algorithm running on top of a broadcast
// abstraction (the algorithm 𝓐 of the paper, solving k-SA in CAMP_n[B]).
type App interface {
	// Init is called once with the process's input value (the value it
	// proposes to the implemented object).
	Init(env AppEnv, input model.Value)
	// OnDeliver is called when the underlying broadcast B-delivers a
	// message.
	OnDeliver(env AppEnv, from model.ProcID, msg model.MsgID, payload model.Payload)
	// OnReturn is called when a B.broadcast invocation issued by this
	// process returns.
	OnReturn(env AppEnv, msg model.MsgID)
}

// AppEnv is the interface the runtime (and the replayer of internal/core)
// presents to an App.
type AppEnv interface {
	// ID returns the process's identity; N the number of processes.
	ID() model.ProcID
	N() int
	// Broadcast invokes B.broadcast with the given content.
	Broadcast(payload model.Payload)
	// Decide outputs the app's decision on the implemented object. Only
	// the first call has an effect (the object is one-shot).
	Decide(v model.Value)
}

// Oracle provides the k-SA objects of the model CAMP_n[k-SA]. Propose is
// called when a propose action executes and must return the value the
// process will decide; the runtime records the decision as a separate step
// fired by the scheduler. Implementations must satisfy k-SA-Validity and
// k-SA-Agreement; the paper's adversary supplies its own oracle
// implementing the decision table of Algorithm 1 (lines 16-20).
type Oracle interface {
	Propose(obj model.KSAID, proc model.ProcID, v model.Value) model.Value
}

// FreeOracle is the default k-SA oracle: the first proposals contribute up
// to k distinct decided values; later proposers adopt the most recent
// decided value. The zero value is not usable; use NewFreeOracle.
type FreeOracle struct {
	k       int
	decided map[model.KSAID][]model.Value
}

var _ Oracle = (*FreeOracle)(nil)

// NewFreeOracle returns an oracle for k-set agreement.
func NewFreeOracle(k int) *FreeOracle {
	return &FreeOracle{k: k, decided: make(map[model.KSAID][]model.Value)}
}

// Propose implements Oracle.
func (o *FreeOracle) Propose(obj model.KSAID, proc model.ProcID, v model.Value) model.Value {
	vals := o.decided[obj]
	for _, d := range vals {
		if d == v {
			return v // value already decided: deciding it again is free
		}
	}
	if len(vals) < o.k {
		o.decided[obj] = append(vals, v)
		return v
	}
	return vals[len(vals)-1]
}

// Action is one externally visible action an automaton emits. Peer is a
// send's destination or a delivery's origin, as in model.Step; the other
// fields are the recorded step's. Both runtimes queue this type: the
// deterministic runtime executes one per scheduler step, net.Core runs a
// handler's actions as a cascade.
type Action struct {
	Kind    model.StepKind
	Peer    model.ProcID
	Msg     model.MsgID
	Payload model.Payload
	Obj     model.KSAID
	Val     model.Value
	Note    string
}

// Step is the step process p records when it executes a. A send's
// instance identity is not part of the action: the executing runtime
// assigns it.
func (a *Action) Step(p model.ProcID) model.Step {
	return model.Step{Proc: p, Kind: a.Kind, Peer: a.Peer, Msg: a.Msg, Payload: a.Payload, Obj: a.Obj, Val: a.Val, Note: a.Note}
}

// Env collects the actions an automaton emits during a handler call.
type Env struct {
	id      model.ProcID
	n       int
	emitted []Action
}

// NewEnv returns a standalone action collector for process id of an
// n-process system, for a runtime that runs automata on Envs of its own:
// internal/net's node core keeps one per process.
func NewEnv(id model.ProcID, n int) *Env {
	return &Env{id: id, n: n}
}

// TakeActions appends the actions emitted on the Env since the last call
// to dst, in emission order, and returns the extended slice. The Env
// keeps its buffer, so a caller that reuses both the Env and dst
// allocates nothing once they have grown.
func (e *Env) TakeActions(dst []Action) []Action {
	dst = append(dst, e.emitted...)
	e.emitted = e.emitted[:0]
	return dst
}

// ID returns the process identity the automaton runs as.
func (e *Env) ID() model.ProcID { return e.id }

// N returns the number of processes.
func (e *Env) N() int { return e.n }

// Send queues a point-to-point send of payload to process to.
func (e *Env) Send(to model.ProcID, payload model.Payload) {
	e.emitted = append(e.emitted, Action{Kind: model.KindSend, Peer: to, Payload: payload})
}

// SendAll queues a send of payload to every process, including the sender
// (the paper's network is complete and includes self-loops).
func (e *Env) SendAll(payload model.Payload) {
	for p := 1; p <= e.n; p++ {
		e.Send(model.ProcID(p), payload)
	}
}

// Propose queues a proposition of val on the k-SA object obj. The matching
// decision arrives through OnDecide; no action emitted after Propose
// executes before the decision does.
func (e *Env) Propose(obj model.KSAID, val model.Value) {
	e.emitted = append(e.emitted, Action{Kind: model.KindPropose, Obj: obj, Val: val})
}

// Deliver queues the B-delivery of broadcast message msg (broadcast by
// origin, with the given content) to the local upper layer.
func (e *Env) Deliver(msg model.MsgID, origin model.ProcID, payload model.Payload) {
	e.emitted = append(e.emitted, Action{Kind: model.KindDeliver, Peer: origin, Msg: msg, Payload: payload})
}

// ReturnBroadcast queues the response of the B.broadcast invocation that
// created msg.
func (e *Env) ReturnBroadcast(msg model.MsgID) {
	e.emitted = append(e.emitted, Action{Kind: model.KindBroadcastReturn, Msg: msg})
}

// Internal queues an internal computation step, visible in traces for
// debugging but ignored by all specifications.
func (e *Env) Internal(note string) {
	e.emitted = append(e.emitted, Action{Kind: model.KindInternal, Note: note})
}

// inFlight is a sent, not yet received, point-to-point message.
type inFlight struct {
	inst    model.MsgID
	from    model.ProcID
	to      model.ProcID
	payload model.Payload
}

// decision is the answer of a k-SA proposition awaiting FireDecide.
type decision struct {
	obj model.KSAID
	val model.Value
}

// procState is the runtime state of one process.
type procState struct {
	id        model.ProcID
	automaton Automaton
	app       App
	// pending[head:] is the action queue. A pop only advances head; push
	// slides the queue back to the front of a full array, so refills
	// reuse the backing array.
	pending []Action
	head    int
	// decision holds the oracle's answer to the process's open k-SA
	// proposition, from the execution of the propose action until
	// FireDecide; the process is blocked meanwhile.
	decision *decision
	crashed  bool
	// openBroadcast is the message id of the in-progress B.broadcast
	// invocation, or NoMsg.
	openBroadcast model.MsgID
	// appDecided tracks the one-shot output of the app.
	appDecided bool
	// invokes holds the current run's not yet invoked upper-layer
	// broadcasts (RunOptions.Broadcasts), in invocation order.
	invokes []model.Payload
}

// queued returns the number of actions in the process's queue.
func (ps *procState) queued() int { return len(ps.pending) - ps.head }

// pop removes and returns the front action of a non-empty queue.
func (ps *procState) pop() Action {
	ps.head++
	return ps.pending[ps.head-1]
}

// push appends actions to the queue. When they do not fit and at least
// as many actions have been popped as remain queued, the queue first
// slides back to the front: the copy costs at most one element per pop
// since the last slide, and the array is reused instead of regrown.
func (ps *procState) push(as []Action) {
	if n := ps.queued(); len(ps.pending)+len(as) > cap(ps.pending) && ps.head >= n {
		copy(ps.pending, ps.pending[ps.head:])
		ps.pending, ps.head = ps.pending[:n], 0
	}
	ps.pending = append(ps.pending, as...)
}

// Config configures a Runtime.
type Config struct {
	// N is the number of processes (p_1..p_N).
	N int
	// NewAutomaton builds the broadcast algorithm instance for each
	// process. Required.
	NewAutomaton func(id model.ProcID) Automaton
	// Oracle provides the k-SA objects. Defaults to NewFreeOracle(1),
	// which is usually wrong for k>1 workloads — set it explicitly.
	Oracle Oracle
	// NewApp optionally builds a k-SA-solving application per process.
	NewApp func(id model.ProcID) App
	// Inputs are the app's proposed values, indexed by process-1.
	Inputs []model.Value
	// Obs receives runtime metrics (step counts per kind, dispatched
	// events, queue depths, crash injections). Nil disables recording
	// entirely; the hot path then costs nil checks only.
	Obs *obs.Registry
	// LiveSpecs are specifications checked online while the run executes:
	// every recorded step is fed to each spec's incremental checker the
	// moment it is appended. RunRandom and RunFair stop at the first
	// violating step (see LiveViolationError); the verdicts are available
	// through LiveMonitor whether or not a violation occurred.
	LiveSpecs []spec.Spec
}

// DefaultAppObject is the object id used to record app-level (implemented)
// k-SA propositions and decisions, chosen high to stay clear of oracle
// object ids.
const DefaultAppObject model.KSAID = 1000

// Runtime executes automata step by step and records the execution.
type Runtime struct {
	cfg Config
	// buf holds the recorded steps in chunked blocks (no realloc-and-copy
	// growth on long runs); x is the contiguous view, materialized lazily
	// by Execution and extended incrementally as the run grows.
	buf     model.StepBuffer
	x       *model.Execution
	procs   []*procState
	network []inFlight
	nextMsg model.MsgID
	met     *schedMetrics
	// env is the one action collector every handler call emits into.
	// Handlers never run nested (only the dispatch loop invokes them), so
	// a single Env and its emitted slice serve every call in turn.
	env Env
	// mon checks LiveSpecs incrementally as steps are recorded and
	// latches the first violation; nil when no live specs are configured.
	mon *spec.Monitor
	// view is the run loop's view of the enabled events, refreshed before
	// every decision.
	view Enabled
	// stranded is set once an in-flight message can be undeliverable: a
	// process crashed, or a send named no process of the system. Until
	// then every in-flight message is an enabled receive.
	stranded bool
}

// New builds a runtime. It returns an error on invalid configuration.
func New(cfg Config) (*Runtime, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("sched: N must be positive, got %d", cfg.N)
	}
	if cfg.NewAutomaton == nil {
		return nil, fmt.Errorf("sched: NewAutomaton is required")
	}
	r := &Runtime{
		cfg:   cfg,
		procs: make([]*procState, cfg.N),
		met:   newSchedMetrics(cfg.Obs),
	}
	r.view.rt = r
	for i := range r.procs {
		r.procs[i] = &procState{id: model.ProcID(i + 1)}
	}
	r.Reset(cfg.Oracle)
	return r, nil
}

// Reset puts the runtime back in the state New builds from its Config,
// with oracle as the k-SA oracle (nil selects NewFreeOracle(1), as in
// New): fresh automata and apps, a fresh live monitor, an empty
// execution and network. It keeps the buffers earlier runs grew — the
// step log's chunks, the action queues, the in-flight list and the
// enabled view — so a runtime reset before each of many short runs stops
// allocating them. What the runtime returned before Reset (traces,
// executions, violations, the old LiveMonitor) is left as it was.
func (r *Runtime) Reset(oracle Oracle) {
	if oracle == nil {
		oracle = NewFreeOracle(1)
	}
	r.cfg.Oracle = oracle
	r.buf.Reset()
	r.x = model.NewExecution(r.cfg.N)
	r.network = r.network[:0]
	r.nextMsg = 1
	r.stranded = false
	r.mon = nil
	if len(r.cfg.LiveSpecs) > 0 {
		// Built before the init loop below: app initialization records
		// Propose steps, which the live checkers must see too.
		r.mon = spec.NewMonitor(r.cfg.N, r.cfg.LiveSpecs...)
	}
	for _, ps := range r.procs {
		*ps = procState{
			id: ps.id, automaton: r.cfg.NewAutomaton(ps.id),
			pending: ps.pending[:0], invokes: ps.invokes[:0],
		}
		if r.cfg.NewApp != nil {
			ps.app = r.cfg.NewApp(ps.id)
		}
	}
	for _, ps := range r.procs {
		r.runAutomaton(ps, func(env *Env) { ps.automaton.Init(env) })
	}
	for _, ps := range r.procs {
		if ps.app == nil {
			continue
		}
		var input model.Value
		if int(ps.id)-1 < len(r.cfg.Inputs) {
			input = r.cfg.Inputs[ps.id-1]
		} else {
			input = model.Value(fmt.Sprintf("input-%d", ps.id))
		}
		r.record(model.Step{Proc: ps.id, Kind: model.KindPropose, Obj: DefaultAppObject, Val: input})
		ps.app.Init(&appEnv{rt: r, ps: ps}, input)
	}
}

// Execution returns the execution recorded so far. Callers must not
// mutate it while the runtime is still running. The returned value is the
// runtime's canonical execution: steps recorded since the previous call
// are appended to it (one exact-size reallocation at most), and later
// calls extend the same object, so traces built from it observe run
// extensions just as they did when recording appended directly.
func (r *Runtime) Execution() *model.Execution {
	r.x.Steps = r.buf.AppendTo(r.x.Steps)
	return r.x
}

// StepCount returns the number of steps recorded so far without
// materializing the execution.
func (r *Runtime) StepCount() int { return r.buf.Len() }

// record appends a step to the execution and counts it. With live specs
// configured, the step the log just stored is also fed, in place, to
// their incremental checkers, whose monitor latches the first violation.
func (r *Runtime) record(s model.Step) {
	stored := r.buf.Append(s)
	r.met.record(s.Kind)
	if r.mon != nil {
		r.mon.FeedStep(stored)
	}
}

// LiveViolation returns the first violation latched by the live checkers
// and the index of the step that caused it (nil, -1 when none, or when no
// live specs are configured; index -1 for a violation latched by the
// monitor's Finish).
func (r *Runtime) LiveViolation() (*spec.Violation, int) {
	if r.mon == nil {
		return nil, -1
	}
	return r.mon.Violation()
}

// LiveMonitor returns the live checking monitor, nil when no live specs
// are configured. Callers that want end-of-trace (liveness) verdicts must
// call its Finish once the run is over.
func (r *Runtime) LiveMonitor() *spec.Monitor { return r.mon }

// NewMsgID allocates a fresh message identity (shared between broadcast
// messages and point-to-point instances, so identities never collide).
func (r *Runtime) NewMsgID() model.MsgID {
	id := r.nextMsg
	r.nextMsg++
	return id
}

// proc returns the state of process p.
func (r *Runtime) proc(p model.ProcID) (*procState, error) {
	if p < 1 || int(p) > r.cfg.N {
		return nil, fmt.Errorf("sched: no process %v", p)
	}
	return r.procs[p-1], nil
}

// runAutomaton invokes an automaton handler on the runtime's one Env and
// appends the emitted actions to the process's queue. The actions are
// copied onto the queue as soon as the handler returns, so the Env and
// its emitted slice are free for the next call: no handler call
// allocates an Env or a fresh emission slice.
func (r *Runtime) runAutomaton(ps *procState, call func(env *Env)) {
	env := &r.env
	env.id, env.n, env.emitted = ps.id, r.cfg.N, env.emitted[:0]
	call(env)
	r.met.emitted(len(env.emitted))
	ps.push(env.emitted)
}

// appEnv adapts the runtime to the AppEnv interface.
type appEnv struct {
	rt *Runtime
	ps *procState
}

var _ AppEnv = (*appEnv)(nil)

func (e *appEnv) ID() model.ProcID { return e.ps.id }
func (e *appEnv) N() int           { return e.rt.cfg.N }

// Broadcast invokes B.broadcast on the process's broadcast automaton. The
// invocation is a step recorded immediately: in the paper's model the
// invocation event is the app's own step, not a queued action.
func (e *appEnv) Broadcast(payload model.Payload) {
	e.rt.invokeBroadcast(e.ps, payload)
}

// Decide records the app's one-shot decision on the implemented object.
func (e *appEnv) Decide(v model.Value) {
	if e.ps.appDecided {
		return
	}
	e.ps.appDecided = true
	e.rt.record(model.Step{Proc: e.ps.id, Kind: model.KindDecide, Obj: DefaultAppObject, Val: v})
}
