// Package model defines the formal objects of the crash-prone asynchronous
// message-passing model CAMP_n[H] used throughout the repository: process
// identities, messages, k-set-agreement object identities, steps, and
// executions (sequences of steps, Section 2 of the paper).
//
// The package also implements the three execution transformations on which
// the paper's proof rests:
//
//   - Restrict: the restriction of an execution onto a subset of its
//     messages (Definition 2, compositionality);
//   - Rename: the injective replacement of message contents
//     (Definition 3, content-neutrality);
//   - ProjectProc / ProjectBroadcast: per-process and broadcast-event
//     projections (used to build the executions β and γ of Definition 4).
//
// Everything here is a pure value type: executions are immutable once
// built, and every transformation returns a fresh execution.
package model

import (
	"fmt"
	"strings"
)

// ProcID identifies a process. Processes are numbered 1..n as in the paper
// (p_1, ..., p_n). The zero value is not a valid process identity.
type ProcID int

// NoProc is the absent process identity (used for steps that have no peer).
const NoProc ProcID = 0

// String returns the paper's notation for the process, e.g. "p3".
func (p ProcID) String() string {
	if p == NoProc {
		return "p?"
	}
	return fmt.Sprintf("p%d", int(p))
}

// MsgID uniquely identifies a message instance within an execution. The
// paper stipulates that "each sent message is unique" even when contents
// coincide; MsgID is that identity. The zero value denotes "no message".
type MsgID int64

// NoMsg is the absent message identity.
const NoMsg MsgID = 0

// Payload is the content of a message. Contents may repeat across distinct
// message instances. Content-neutrality (Definition 3) is expressed as an
// injective substitution on payloads.
type Payload string

// KSAID identifies a k-set-agreement object instance. The model CAMP_n[k-SA]
// gives processes access to as many instances as needed; instances are
// identified by small integers allocated by the runtime. The zero value is
// not a valid object.
type KSAID int

// NoKSA is the absent k-SA object identity.
const NoKSA KSAID = 0

// String returns a short printable form, e.g. "ksa4".
func (o KSAID) String() string {
	if o == NoKSA {
		return "ksa?"
	}
	return fmt.Sprintf("ksa%d", int(o))
}

// Value is a value proposed to or decided on a k-SA object.
type Value string

// StepKind enumerates the kinds of actions a step can carry. They mirror
// the action vocabulary of Section 2 ("Execution"): low-level send/receive,
// broadcast-abstraction events (invocation, response, delivery), high-level
// k-SA operations (propose, decide), internal computation, and crashes.
type StepKind int

// The step kinds. KindInternal covers local computation the proof never
// inspects; KindCrash marks the point after which a process takes no steps.
const (
	KindSend            StepKind = iota + 1 // <p : send m to q>
	KindReceive                             // <p : receive m from q>
	KindBroadcastInvoke                     // <p : B.broadcast(m)>
	KindBroadcastReturn                     // <p : return from B.broadcast(m)>
	KindDeliver                             // <p : B.deliver m from q>
	KindPropose                             // <p : ksa.propose(v)>
	KindDecide                              // <p : ksa.decide(w)>
	KindInternal                            // local computation
	KindCrash                               // p crashes (takes no further step)
)

// stepKindNames is indexed by kind; the kinds are numbered 1..KindCrash
// without gaps, so a range check is Valid and an index is String. Both run
// for every step a decoder reads.
var stepKindNames = [...]string{
	KindSend:            "send",
	KindReceive:         "receive",
	KindBroadcastInvoke: "broadcast",
	KindBroadcastReturn: "return-broadcast",
	KindDeliver:         "deliver",
	KindPropose:         "propose",
	KindDecide:          "decide",
	KindInternal:        "internal",
	KindCrash:           "crash",
}

// String returns the lower-case name of the kind.
func (k StepKind) String() string {
	if k.Valid() {
		return stepKindNames[k]
	}
	return fmt.Sprintf("StepKind(%d)", int(k))
}

// Valid reports whether k is one of the declared kinds.
func (k StepKind) Valid() bool { return k >= KindSend && k <= KindCrash }

// Step is one element of an execution: a pair <p_i : a> of a process and an
// action. The fields that are meaningful depend on Kind:
//
//   - KindSend:            Proc sends Msg/Payload to Peer.
//   - KindReceive:         Proc receives Msg/Payload from Peer.
//   - KindBroadcastInvoke: Proc invokes B.broadcast; Msg is the fresh
//     message instance, Payload its content.
//   - KindBroadcastReturn: Proc returns from the invocation that
//     broadcast Msg.
//   - KindDeliver:         Proc B-delivers Msg/Payload from Peer (the
//     original broadcaster).
//   - KindPropose:         Proc proposes Val to Obj.
//   - KindDecide:          Proc decides Val on Obj.
//   - KindInternal:        Note describes the local computation.
//   - KindCrash:           no other field is meaningful.
type Step struct {
	Proc    ProcID   `json:"proc"`
	Kind    StepKind `json:"kind"`
	Peer    ProcID   `json:"peer,omitempty"`
	Msg     MsgID    `json:"msg,omitempty"`
	Payload Payload  `json:"payload,omitempty"`
	Obj     KSAID    `json:"obj,omitempty"`
	Val     Value    `json:"val,omitempty"`
	Note    string   `json:"note,omitempty"`
	// Batch groups deliveries into sets for set-delivery abstractions
	// (the SCD family of Section 3.1's remark): deliveries by the same
	// process with the same positive Batch belong to one delivered set.
	// Zero means ungrouped (ordinary single-message delivery).
	Batch int64 `json:"batch,omitempty"`
}

// String renders the step in the paper's notation.
func (s Step) String() string {
	switch s.Kind {
	case KindSend:
		return fmt.Sprintf("<%v: send m%d(%q) to %v>", s.Proc, s.Msg, string(s.Payload), s.Peer)
	case KindReceive:
		return fmt.Sprintf("<%v: receive m%d(%q) from %v>", s.Proc, s.Msg, string(s.Payload), s.Peer)
	case KindBroadcastInvoke:
		return fmt.Sprintf("<%v: B.broadcast(m%d(%q))>", s.Proc, s.Msg, string(s.Payload))
	case KindBroadcastReturn:
		return fmt.Sprintf("<%v: return from B.broadcast(m%d)>", s.Proc, s.Msg)
	case KindDeliver:
		return fmt.Sprintf("<%v: B.deliver m%d(%q) from %v>", s.Proc, s.Msg, string(s.Payload), s.Peer)
	case KindPropose:
		return fmt.Sprintf("<%v: %v.propose(%q)>", s.Proc, s.Obj, string(s.Val))
	case KindDecide:
		return fmt.Sprintf("<%v: %v.decide(%q)>", s.Proc, s.Obj, string(s.Val))
	case KindInternal:
		return fmt.Sprintf("<%v: internal %s>", s.Proc, s.Note)
	case KindCrash:
		return fmt.Sprintf("<%v: crash>", s.Proc)
	default:
		return fmt.Sprintf("<%v: ?kind=%d>", s.Proc, int(s.Kind))
	}
}

// IsBroadcastEvent reports whether the step is an event of the broadcast
// abstraction interface (invocation, response, or delivery). These are the
// steps retained by the β projection of Definition 4.
func (s Step) IsBroadcastEvent() bool {
	switch s.Kind {
	case KindBroadcastInvoke, KindBroadcastReturn, KindDeliver:
		return true
	default:
		return false
	}
}

// Execution is a finite sequence of steps (Section 2). N is the number of
// processes of the system the execution belongs to; steps must only involve
// processes 1..N (well-formedness, Definition 1, first condition).
type Execution struct {
	N     int    `json:"n"`
	Steps []Step `json:"steps"`
}

// NewExecution returns an empty execution over n processes.
func NewExecution(n int) *Execution {
	return &Execution{N: n}
}

// Len returns the number of steps.
func (x *Execution) Len() int { return len(x.Steps) }

// Append adds steps at the end of the execution (the ⊕ of Algorithm 1).
func (x *Execution) Append(steps ...Step) {
	x.Steps = append(x.Steps, steps...)
}

// Clone returns a deep copy of the execution.
func (x *Execution) Clone() *Execution {
	c := &Execution{N: x.N, Steps: make([]Step, len(x.Steps))}
	copy(c.Steps, x.Steps)
	return c
}

// Correct reports whether process p is correct (non-faulty) in the
// execution: one of p_1..p_N that takes no crash step. Per Section 2, a
// process that crashes in a run is faulty; all others are correct.
func (x *Execution) Correct(p ProcID) bool { return x.CorrectSet()[p] }

// CorrectSet returns the set of correct processes.
func (x *Execution) CorrectSet() map[ProcID]bool {
	out := make(map[ProcID]bool, x.N)
	for p := 1; p <= x.N; p++ {
		out[ProcID(p)] = true
	}
	for _, s := range x.Steps {
		if s.Kind == KindCrash {
			out[s.Proc] = false
		}
	}
	return out
}

// Messages returns the identities of all messages broadcast in the
// execution (the set M of Section 3.1), in order of first broadcast.
func (x *Execution) Messages() []MsgID {
	seen := make(map[MsgID]bool)
	var out []MsgID
	for _, s := range x.Steps {
		if s.Kind == KindBroadcastInvoke && !seen[s.Msg] {
			seen[s.Msg] = true
			out = append(out, s.Msg)
		}
	}
	return out
}

// Restrict returns the restriction of the execution onto the messages of
// keep (Definition 2). Broadcast events (invocations, responses,
// deliveries) whose message is not in keep are removed; all non-broadcast
// steps are preserved. Restricting over broadcast events only matches the
// paper's usage: compositionality constrains the broadcast abstraction's
// view of an execution, and specifications only inspect broadcast events.
func (x *Execution) Restrict(keep map[MsgID]bool) *Execution {
	out := &Execution{N: x.N, Steps: make([]Step, 0, len(x.Steps))}
	for _, s := range x.Steps {
		if s.IsBroadcastEvent() && !keep[s.Msg] {
			continue
		}
		out.Steps = append(out.Steps, s)
	}
	return out
}

// RestrictBroadcastOnly returns the restriction of the broadcast projection
// of x onto keep: only broadcast events of messages in keep survive. This
// is the composition ProjectBroadcast∘Restrict used when comparing
// broadcast-level executions.
func (x *Execution) RestrictBroadcastOnly(keep map[MsgID]bool) *Execution {
	out := &Execution{N: x.N, Steps: make([]Step, 0, len(x.Steps))}
	for _, s := range x.Steps {
		if s.IsBroadcastEvent() && keep[s.Msg] {
			out.Steps = append(out.Steps, s)
		}
	}
	return out
}

// Renaming is an injective substitution on message contents, the function r
// of Definition 3 (content-neutrality). Payloads absent from the map are
// left unchanged; the mapping including those identity pairs must remain
// injective, which Validate checks.
type Renaming map[Payload]Payload

// Validate returns an error if the renaming is not injective, taking into
// account that unmapped payloads are implicitly mapped to themselves; the
// payloads argument lists the payloads occurring in the execution the
// renaming will be applied to.
func (r Renaming) Validate(payloads []Payload) error {
	image := make(map[Payload]Payload, len(payloads))
	for _, p := range payloads {
		q, ok := r[p]
		if !ok {
			q = p
		}
		if prev, dup := image[q]; dup && prev != p {
			return fmt.Errorf("renaming not injective: %q and %q both map to %q", prev, p, q)
		}
		image[q] = p
	}
	return nil
}

// Apply returns r(p), defaulting to the identity.
func (r Renaming) Apply(p Payload) Payload {
	if q, ok := r[p]; ok {
		return q
	}
	return p
}

// Payloads returns the payloads of all messages broadcast in the execution,
// deduplicated, in order of first appearance.
func (x *Execution) Payloads() []Payload {
	seen := make(map[Payload]bool)
	var out []Payload
	for _, s := range x.Steps {
		if s.Kind == KindBroadcastInvoke && !seen[s.Payload] {
			seen[s.Payload] = true
			out = append(out, s.Payload)
		}
	}
	return out
}

// Rename returns the execution obtained by replacing every broadcast
// message content m by r(m) (Definition 3). The substitution applies to the
// payloads of broadcast events; message identities and all other steps are
// unchanged. It returns an error if r is not injective on the payloads of x.
func (x *Execution) Rename(r Renaming) (*Execution, error) {
	if err := r.Validate(x.Payloads()); err != nil {
		return nil, err
	}
	out := &Execution{N: x.N, Steps: make([]Step, len(x.Steps))}
	for i, s := range x.Steps {
		if s.IsBroadcastEvent() {
			s.Payload = r.Apply(s.Payload)
		}
		out.Steps[i] = s
	}
	return out, nil
}

// RenameByMsg returns the execution obtained by replacing the payload of
// each broadcast message instance id by subst[id] (ids absent from subst
// keep their payload). This is the per-instance form of Definition 3's
// substitution used by Lemma 9, where each of p_i's N_i messages is
// replaced by the corresponding message of the solo execution α_i. The
// resulting assignment payloads need not be injective across *instances*
// that the caller knows are distinct messages; the caller is responsible
// for injectivity at the message level (each instance is a distinct
// message, so any per-instance substitution is injective on messages).
func (x *Execution) RenameByMsg(subst map[MsgID]Payload) *Execution {
	out := &Execution{N: x.N, Steps: make([]Step, len(x.Steps))}
	for i, s := range x.Steps {
		if s.IsBroadcastEvent() {
			if p, ok := subst[s.Msg]; ok {
				s.Payload = p
			}
		}
		out.Steps[i] = s
	}
	return out
}

// ProjectProc returns the subsequence of steps taken by process p.
func (x *Execution) ProjectProc(p ProcID) *Execution {
	out := &Execution{N: x.N}
	for _, s := range x.Steps {
		if s.Proc == p {
			out.Steps = append(out.Steps, s)
		}
	}
	return out
}

// ProjectBroadcast returns the subsequence of broadcast events (the β
// construction of Definition 4: invocations of and responses from
// B.broadcast, and B-delivery events).
func (x *Execution) ProjectBroadcast() *Execution {
	out := &Execution{N: x.N}
	for _, s := range x.Steps {
		if s.IsBroadcastEvent() {
			out.Steps = append(out.Steps, s)
		}
	}
	return out
}

// DeliveryOrder returns, for process p, the sequence of message identities
// it B-delivers, in delivery order.
func (x *Execution) DeliveryOrder(p ProcID) []MsgID {
	var out []MsgID
	for _, s := range x.Steps {
		if s.Kind == KindDeliver && s.Proc == p {
			out = append(out, s.Msg)
		}
	}
	return out
}

// BroadcastOrder returns, for process p, the sequence of message
// identities it B-broadcasts, in invocation order.
func (x *Execution) BroadcastOrder(p ProcID) []MsgID {
	var out []MsgID
	for _, s := range x.Steps {
		if s.Kind == KindBroadcastInvoke && s.Proc == p {
			out = append(out, s.Msg)
		}
	}
	return out
}

// Broadcaster returns the process that broadcast message id, or NoProc if
// the message is never broadcast in the execution.
func (x *Execution) Broadcaster(id MsgID) ProcID {
	for _, s := range x.Steps {
		if s.Kind == KindBroadcastInvoke && s.Msg == id {
			return s.Proc
		}
	}
	return NoProc
}

// PayloadOf returns the content of message id as of its broadcast
// invocation, or the empty payload if the message is never broadcast.
func (x *Execution) PayloadOf(id MsgID) Payload {
	for _, s := range x.Steps {
		if s.Kind == KindBroadcastInvoke && s.Msg == id {
			return s.Payload
		}
	}
	return ""
}

// DecidedValues returns, per k-SA object, the set of decided values in
// decision order (duplicates removed).
func (x *Execution) DecidedValues() map[KSAID][]Value {
	out := make(map[KSAID][]Value)
	for _, s := range x.Steps {
		if s.Kind != KindDecide {
			continue
		}
		vals := out[s.Obj]
		dup := false
		for _, v := range vals {
			if v == s.Val {
				dup = true
				break
			}
		}
		if !dup {
			out[s.Obj] = append(vals, s.Val)
		}
	}
	return out
}

// String renders the execution one step per line.
func (x *Execution) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "execution over %d processes, %d steps\n", x.N, len(x.Steps))
	for i, s := range x.Steps {
		fmt.Fprintf(&b, "%4d  %s\n", i, s.String())
	}
	return b.String()
}
