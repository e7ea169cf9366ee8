package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// PoolCheck machine-checks the pooled-buffer ownership contract that
// DESIGN.md ("Buffer ownership & recycling") states as normative rules:
// the zero-alloc ingest path threads manually recycled objects — pcapio
// record buffers, netparse packets, flow structs — from read to sink,
// and a path that drops one without recycling, touches one after its
// release, or stashes one in long-lived storage corrupts results
// without failing a test.
//
// The analysis is intraprocedural and flow-sensitive: it builds a CFG
// over each function body (cfg.go), tracks values obtained from
// registered acquire sites, and reports
//
//   - R1 leak: a path reaches return (or falls off the end) while a
//     pooled value is still owned — neither released nor transferred.
//     Reported at the acquire site.
//   - R2 use-after-release: any use of a value on a path where it has
//     been released.
//   - R3 double-release: releasing a value that may already be
//     released, including an explicit release shadowed by a deferred
//     one.
//   - R4 release-after-transfer: releasing, re-transferring, or
//     deferred-releasing a value whose ownership was handed off
//     through a registered transfer.
//   - R5 escape: storing a pooled pointer into long-lived storage — a
//     struct field, global, map/slice element, channel send, or
//     goroutine (argument or closure capture) — without a
//     //lint:ignore poolcheck justification.
//
// The acquire/release/transfer vocabulary is table-driven (poolFuncs):
// a new pool registers its functions in one place and every rule
// applies. Passing a tracked value to an unregistered function is a
// hand-off (DESIGN.md's rule of thumb: a stage that passes a pooled
// object on gives up access to it): it discharges the leak obligation
// but, unlike a registered transfer, a later release is tolerated —
// only the table is authoritative enough to call that a double-free.
// Functions that only borrow (Monitor.Feed, DecodeInto,
// ReadPacketInto) are registered as borrows so release-after-call
// stays legal. Paths ending in panic/os.Exit/log.Fatal are exempt from
// the leak rule. The analysis does not follow aliasing through struct
// fields or slices, and returning a tracked value transfers it to the
// caller.
var PoolCheck = &Analyzer{
	Name: "poolcheck",
	Doc:  "enforce the pooled-buffer ownership contract (leaks, use-after-release, double-release, escapes)",
	Run:  runPoolCheck,
}

// poolRole classifies a registered function's effect on a pooled value.
type poolRole int

const (
	roleAcquire  poolRole = iota // returns a newly owned pooled value
	roleRelease                  // recycles the value passed at arg
	roleTransfer                 // takes ownership of the value at arg
	roleBorrow                   // uses the value; ownership unchanged
)

// poolFunc is one vocabulary entry, keyed by types.Func.FullName.
type poolFunc struct {
	role poolRole
	// arg is the index of the pooled argument for release/transfer
	// entries (receivers are not arguments: AttachWire's buffer is
	// arg 0).
	arg int
	// what names the resource in findings ("record buffer", "packet",
	// "flow"); acquire entries only.
	what string
}

// poolFuncs is the registered acquire/release/transfer/borrow
// vocabulary, keyed by the fully qualified name reported by
// (*types.Func).FullName — "pkgpath.Func" for functions,
// "(*pkgpath.Type).Method" for pointer-receiver methods. New pools
// register here and nowhere else.
var poolFuncs = map[string]poolFunc{
	// internal/pcapio: pooled record buffers.
	"behaviot/internal/pcapio.GetBuf":                   {role: roleAcquire, what: "record buffer"},
	"behaviot/internal/pcapio.PutBuf":                   {role: roleRelease, arg: 0},
	"(*behaviot/internal/pcapio.Reader).ReadPacketInto": {role: roleBorrow},

	// internal/netparse: pooled packets. DetachWire hands the wire
	// buffer back to the caller, so its result is a fresh acquisition;
	// AttachWire gives a buffer to the packet.
	"behaviot/internal/netparse.GetPacket":            {role: roleAcquire, what: "packet"},
	"behaviot/internal/netparse.PutPacket":            {role: roleRelease, arg: 0},
	"(*behaviot/internal/netparse.Packet).AttachWire": {role: roleTransfer, arg: 0},
	"(*behaviot/internal/netparse.Packet).DetachWire": {role: roleAcquire, what: "record buffer"},
	"behaviot/internal/netparse.DecodeInto":           {role: roleBorrow},

	// internal/stream: the single-home daemon's queue consumes packets
	// (the sink is the recycle point; shed/drop paths recycle
	// internally); the monitor only borrows — it copies what it keeps.
	"(*behaviot/internal/stream.Queue).Feed":   {role: roleTransfer, arg: 0},
	"(*behaviot/internal/stream.Queue).Offer":  {role: roleTransfer, arg: 0},
	"(*behaviot/internal/stream.Monitor).Feed": {role: roleBorrow},

	// internal/fleet: the one-record ingest form recycles the record
	// buffer it is handed on every path. (The listener's batch path,
	// Tenant.Ingest, takes no pooled value: it borrows bytes from the
	// connection's read window.)
	"(*behaviot/internal/fleet.Tenant).IngestRecord": {role: roleTransfer, arg: 2},

	// internal/flows: the assembler freelist.
	"(*behaviot/internal/flows.Assembler).newFlow": {role: roleAcquire, what: "flow"},
	"(*behaviot/internal/flows.Assembler).Recycle": {role: roleRelease, arg: 0},
}

// Ownership state bits for one tracked value along a path. The fact at
// a node is the union over all paths reaching it, so a set bit means
// "possibly in this state".
type ownBits uint8

const (
	bitOwned       ownBits = 1 << iota // must still be released/transferred
	bitReleased                        // given back to the pool
	bitTransferred                     // handed off via a registered transfer
	bitHandedOff                       // passed to an unregistered callee
	bitDeferred                        // a deferred release is pending
)

// poolValue is one abstract pooled object, identified by its acquire
// site, so every iteration of a loop maps to the same value.
type poolValue struct {
	pos      token.Pos
	what     string
	deferPos token.Pos       // position of the defer scheduling its release
	reported map[string]bool // finding kinds already emitted (dedup)
}

// pcState is the dataflow fact at one CFG node: which values each
// variable may hold, and each value's ownership bits.
type pcState struct {
	bind map[types.Object][]*poolValue
	own  map[*poolValue]ownBits
}

func newPCState() *pcState {
	return &pcState{bind: map[types.Object][]*poolValue{}, own: map[*poolValue]ownBits{}}
}

func (s *pcState) clone() *pcState {
	c := newPCState()
	for k, v := range s.bind {
		c.bind[k] = append([]*poolValue(nil), v...)
	}
	for k, v := range s.own {
		c.own[k] = v
	}
	return c
}

// merge unions other into s, reporting whether s changed. Facts only
// grow under merge, so the fixpoint below terminates.
func (s *pcState) merge(other *pcState) bool {
	changed := false
	for obj, vals := range other.bind {
		have := s.bind[obj]
		for _, v := range vals {
			found := false
			for _, h := range have {
				if h == v {
					found = true
					break
				}
			}
			if !found {
				have = append(have, v)
				changed = true
			}
		}
		s.bind[obj] = have
	}
	for val, bits := range other.own {
		if s.own[val]|bits != s.own[val] {
			s.own[val] |= bits
			changed = true
		}
	}
	return changed
}

func runPoolCheck(pkg *Package) []Finding {
	if pkg.Info == nil || pkg.Types == nil {
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		if isTestFile(pkg, file.Pos()) {
			continue
		}
		// Every function body — declaration or literal — is analyzed
		// independently; a literal's statements are excluded from its
		// enclosing function's CFG.
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body == nil {
				return true
			}
			out = append(out, analyzeBody(pkg, body)...)
			return true // descend: nested literals get their own pass
		})
	}
	return out
}

// mentionsPool is the cheap pre-filter that keeps CFG construction off
// the vast majority of functions: only bodies calling a registered
// pool function are analyzed.
func mentionsPool(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeFunc(pkg, call); fn != nil {
				if _, ok := poolFuncs[fn.FullName()]; ok {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// analyzeBody runs the ownership dataflow over one function body.
func analyzeBody(pkg *Package, body *ast.BlockStmt) []Finding {
	if !mentionsPool(pkg, body) {
		return nil
	}
	g := buildCFG(body, pkg.Info)
	a := &pcAnalysis{pkg: pkg, body: body}

	// Pass 1: worklist fixpoint over union-merged in-states.
	in := make([]*pcState, len(g.nodes))
	in[g.entry.index] = newPCState()
	work := []*cfgNode{g.entry}
	queued := map[int]bool{g.entry.index: true}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		queued[n.index] = false
		st := in[n.index].clone()
		a.apply(n, st, false)
		for _, succ := range n.succs {
			first := in[succ.index] == nil
			if first {
				in[succ.index] = newPCState()
			}
			// A node is (re)queued when first reached or when its
			// in-state grew; merge alone cannot detect the first reach
			// because empty-into-empty reports no change.
			if changed := in[succ.index].merge(st); (changed || first) && !queued[succ.index] {
				queued[succ.index] = true
				work = append(work, succ)
			}
		}
	}

	// Pass 2: one reporting sweep per node over the fixpoint in-states,
	// so iteration order cannot duplicate or reorder findings; dedup is
	// per value and finding kind.
	for _, n := range g.nodes {
		if in[n.index] == nil || n == g.exit || n == g.panicked {
			continue
		}
		a.apply(n, in[n.index].clone(), true)
	}
	// R1 at the normal exit. Paths into g.panicked are exempt.
	if exitIn := in[g.exit.index]; exitIn != nil {
		for val, bits := range exitIn.own {
			if bits&bitOwned == 0 || bits&bitDeferred != 0 {
				continue
			}
			a.report(val, "leak", val.pos,
				"pooled %s acquired here is not released or transferred on every path (R1)", val.what)
		}
	}

	sort.Slice(a.findings, func(i, j int) bool { return a.findings[i].pos < a.findings[j].pos })
	out := make([]Finding, 0, len(a.findings))
	for _, f := range a.findings {
		out = append(out, finding(pkg, "poolcheck", f.pos, "%s", f.msg))
	}
	return out
}

type pcFinding struct {
	pos token.Pos
	msg string
}

// pcAnalysis carries one function body's analysis state: the interned
// acquire-site values and the findings accumulated in pass 2.
type pcAnalysis struct {
	pkg      *Package
	body     *ast.BlockStmt
	sites    []*poolValue
	findings []pcFinding
}

func (a *pcAnalysis) report(val *poolValue, kind string, pos token.Pos, format string, args ...any) {
	if val.reported == nil {
		val.reported = map[string]bool{}
	}
	if val.reported[kind] {
		return
	}
	val.reported[kind] = true
	a.findings = append(a.findings, pcFinding{pos: pos, msg: fmt.Sprintf(format, args...)})
}

// siteValue interns poolValues per acquire site across the whole
// function so both passes and all paths agree on identity.
func (a *pcAnalysis) siteValue(pos token.Pos, what string) *poolValue {
	for _, v := range a.sites {
		if v.pos == pos {
			return v
		}
	}
	v := &poolValue{pos: pos, what: what}
	a.sites = append(a.sites, v)
	return v
}

// values returns the tracked values an identifier expression may hold.
func (a *pcAnalysis) values(st *pcState, e ast.Expr) []*poolValue {
	obj := a.ident(e)
	if obj == nil {
		return nil
	}
	return st.bind[obj]
}

// ident resolves an identifier expression to its object, nil for
// non-identifiers and the blank identifier.
func (a *pcAnalysis) ident(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := a.pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return a.pkg.Info.Uses[id]
}

// calleeFunc resolves the *types.Func a call invokes; nil for
// builtins, indirect calls, and conversions.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// poolSite returns the vocabulary entry for a call, if registered.
func (a *pcAnalysis) poolSite(call *ast.CallExpr) (poolFunc, bool) {
	fn := calleeFunc(a.pkg, call)
	if fn == nil {
		return poolFunc{}, false
	}
	pf, ok := poolFuncs[fn.FullName()]
	return pf, ok
}

// apply runs one CFG node's transfer function over st, emitting
// findings when report is set. Compound statements appear as
// head-only nodes (see cfg.go), so only their head expressions are
// evaluated here — their bodies have nodes of their own.
func (a *pcAnalysis) apply(n *cfgNode, st *pcState, report bool) {
	if n.stmt == nil {
		return
	}
	handled := map[*ast.Ident]bool{}

	switch s := n.stmt.(type) {
	case *ast.IfStmt:
		a.applyHead(s.Cond, st, report, handled)
	case *ast.ForStmt:
		a.applyHead(s.Cond, st, report, handled)
	case *ast.RangeStmt:
		a.applyHead(s.X, st, report, handled)
	case *ast.SwitchStmt:
		a.applyHead(s.Tag, st, report, handled)
	case *ast.TypeSwitchStmt:
		a.applyStmt(s.Assign, st, report, handled)
	case *ast.CaseClause:
		for _, e := range s.List {
			a.applyHead(e, st, report, handled)
		}
	case *ast.SelectStmt, *ast.LabeledStmt, *ast.BlockStmt:
		// No effects of their own at the head node.
	default:
		a.applyStmt(s, st, report, handled)
	}
}

// applyHead evaluates a compound statement's head expression.
func (a *pcAnalysis) applyHead(e ast.Expr, st *pcState, report bool, handled map[*ast.Ident]bool) {
	if e == nil {
		return
	}
	a.applyExpr(e, st, report, handled)
	a.genericUses(e, st, report, handled)
}

// applyStmt handles simple (non-compound) statements.
func (a *pcAnalysis) applyStmt(s ast.Stmt, st *pcState, report bool, handled map[*ast.Ident]bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		a.applyAssign(s, st, report, handled)
	case *ast.DeclStmt:
		a.applyDecl(s, st, report, handled)
	case *ast.ExprStmt:
		a.applyExpr(s.X, st, report, handled)
	case *ast.DeferStmt:
		a.applyDefer(s, st, report, handled)
	case *ast.GoStmt:
		a.applyGo(s, st, report, handled)
	case *ast.SendStmt:
		a.applyExpr(s.Chan, st, report, handled)
		a.applyExpr(s.Value, st, report, handled)
		for _, val := range a.values(st, s.Value) {
			if report {
				a.report(val, "escape-chan", s.Value.Pos(),
					"pooled %s (acquired at %s) sent on a channel: the receiver outlives this function's ownership (R5: hand off through a registered transfer or //lint:ignore poolcheck <reason>)",
					val.what, a.pos(val.pos))
			}
			st.own[val] = (st.own[val] &^ bitOwned) | bitTransferred
		}
		if id, ok := s.Value.(*ast.Ident); ok {
			handled[id] = true
		}
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			a.applyExpr(res, st, report, handled)
			for _, val := range a.values(st, res) {
				// Returning a pooled value transfers it to the caller.
				st.own[val] = (st.own[val] &^ bitOwned) | bitTransferred
			}
			if id, ok := res.(*ast.Ident); ok {
				handled[id] = true
			}
		}
	}
	a.genericUses(s, st, report, handled)
}

// applyDecl handles `var x = acquire()` declarations.
func (a *pcAnalysis) applyDecl(s *ast.DeclStmt, st *pcState, report bool, handled map[*ast.Ident]bool) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Names) != len(vs.Values) {
			continue
		}
		for i, name := range vs.Names {
			a.applyExpr(vs.Values[i], st, report, handled)
			a.assignOne(name, vs.Values[i], st, report, handled)
		}
	}
}

// applyAssign handles acquires, aliasing, rebinding, and store escapes.
func (a *pcAnalysis) applyAssign(s *ast.AssignStmt, st *pcState, report bool, handled map[*ast.Ident]bool) {
	// Call effects and escapes on the RHS run first (evaluation order).
	for _, rhs := range s.Rhs {
		a.applyExpr(rhs, st, report, handled)
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			a.assignOne(s.Lhs[i], s.Rhs[i], st, report, handled)
		}
		return
	}
	// Multi-value RHS (x, y := f()): no vocabulary entry can acquire
	// through one, so the LHS names are simply rebound to untracked.
	for _, lhs := range s.Lhs {
		if obj := a.ident(lhs); obj != nil {
			delete(st.bind, obj)
		}
	}
}

func (a *pcAnalysis) assignOne(lhs, rhs ast.Expr, st *pcState, report bool, handled map[*ast.Ident]bool) {
	lhsObj := a.ident(lhs)

	// Acquire call assigned to a name: strong update — a fresh object
	// replaces whatever the site produced on a previous iteration.
	if call, ok := rhs.(*ast.CallExpr); ok {
		if pf, ok := a.poolSite(call); ok && pf.role == roleAcquire {
			val := a.siteValue(call.Pos(), pf.what)
			if report && st.own[val]&bitOwned != 0 {
				a.report(val, "leak", val.pos,
					"pooled %s acquired here may still be owned when the site re-acquires (R1: release or transfer it before looping back)", pf.what)
			}
			st.own[val] = bitOwned
			if lhsObj != nil {
				st.bind[lhsObj] = []*poolValue{val}
			} else if report {
				a.report(val, "escape-store", call.Pos(),
					"pooled %s is acquired directly into long-lived storage (R5: bind it to a local and transfer explicitly, or //lint:ignore poolcheck <reason>)", pf.what)
			}
			return
		}
	}

	rhsVals := a.values(st, rhs)
	switch lhs.(type) {
	case *ast.Ident:
		if lhsObj == nil {
			return
		}
		if v, ok := lhsObj.(*types.Var); ok && v.Parent() == a.pkg.Types.Scope() {
			// Package-level variable: storing a pooled value there is an
			// escape, not an alias.
			for _, val := range rhsVals {
				if report {
					a.report(val, "escape-store", rhs.Pos(),
						"pooled %s (acquired at %s) stored in a package-level variable outlives this function's ownership (R5: transfer through a registered hand-off or //lint:ignore poolcheck <reason>)",
						val.what, a.pos(val.pos))
				}
				st.own[val] = (st.own[val] &^ bitOwned) | bitTransferred
			}
			if id, ok := rhs.(*ast.Ident); ok && len(rhsVals) > 0 {
				handled[id] = true
			}
			return
		}
		if len(rhsVals) > 0 {
			// Alias: both names now refer to the same abstract value.
			st.bind[lhsObj] = append([]*poolValue(nil), rhsVals...)
			if id, ok := rhs.(*ast.Ident); ok {
				handled[id] = true
			}
		} else {
			// Rebound to something untracked (nil, fresh value, ...).
			delete(st.bind, lhsObj)
		}
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		// Storing through a field, element, or pointer puts the value in
		// storage whose lifetime this function cannot see.
		for _, val := range rhsVals {
			if report {
				a.report(val, "escape-store", rhs.Pos(),
					"pooled %s (acquired at %s) stored into long-lived storage (R5: a field or element outlives this function's ownership — transfer through a registered hand-off or //lint:ignore poolcheck <reason>)",
					val.what, a.pos(val.pos))
			}
			st.own[val] = (st.own[val] &^ bitOwned) | bitTransferred
		}
		if id, ok := rhs.(*ast.Ident); ok && len(rhsVals) > 0 {
			handled[id] = true
		}
	}
}

// applyExpr walks an expression for registered-call effects, unknown
// hand-offs, and closure captures. FuncLit bodies are not descended
// into: they are analyzed as functions of their own.
func (a *pcAnalysis) applyExpr(e ast.Expr, st *pcState, report bool, handled map[*ast.Ident]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal capturing a tracked value may run later; the
			// capture is a hand-off (goroutine captures are reported
			// separately in applyGo).
			for obj, vals := range st.bind {
				if capturesObject(a.pkg, n, obj) {
					for _, val := range vals {
						st.own[val] = (st.own[val] &^ bitOwned) | bitHandedOff
					}
				}
			}
			return false
		case *ast.CallExpr:
			a.applyCall(n, st, report, handled)
		}
		return true
	})
}

// applyCall applies one call's vocabulary effect.
func (a *pcAnalysis) applyCall(call *ast.CallExpr, st *pcState, report bool, handled map[*ast.Ident]bool) {
	pf, registered := a.poolSite(call)
	if !registered {
		// Unknown callee: passing a tracked value on is a hand-off (the
		// DESIGN.md rule of thumb) — the obligation moves to the callee.
		for _, arg := range call.Args {
			for _, val := range a.values(st, arg) {
				if st.own[val]&bitOwned != 0 {
					st.own[val] = (st.own[val] &^ bitOwned) | bitHandedOff
				}
			}
		}
		return
	}
	switch pf.role {
	case roleAcquire:
		// Bound results are handled by assignOne; release(acquire()) is
		// matched by the release case. What remains is an acquire whose
		// result is dropped on the floor.
		if a.isBareStatement(call) {
			val := a.siteValue(call.Pos(), pf.what)
			if report {
				a.report(val, "leak", call.Pos(),
					"result of pooled %s acquisition is dropped (R1: bind it and release or transfer it)", pf.what)
			}
		}
	case roleRelease, roleTransfer:
		if pf.arg >= len(call.Args) {
			return
		}
		arg := call.Args[pf.arg]
		if inner, ok := arg.(*ast.CallExpr); ok {
			// release(acquire()) is balanced: PutBuf(p.DetachWire()).
			if ipf, iok := a.poolSite(inner); iok && ipf.role == roleAcquire {
				return
			}
		}
		vals := a.values(st, arg)
		if id, ok := arg.(*ast.Ident); ok && len(vals) > 0 {
			handled[id] = true
		}
		for _, val := range vals {
			bits := st.own[val]
			if report {
				switch {
				case pf.role == roleRelease && bits&bitReleased != 0 && bits&bitOwned == 0:
					a.report(val, "double-release", arg.Pos(),
						"pooled %s (acquired at %s) may already be released when it is released again (R3: double-release corrupts the pool)",
						val.what, a.pos(val.pos))
				case pf.role == roleRelease && bits&bitDeferred != 0:
					a.report(val, "double-release", arg.Pos(),
						"pooled %s (acquired at %s) is released explicitly but the deferred release at %s will run too (R3: double-release corrupts the pool)",
						val.what, a.pos(val.pos), a.pos(val.deferPos))
				case bits&bitTransferred != 0 && bits&bitOwned == 0:
					a.report(val, "after-transfer", arg.Pos(),
						"pooled %s (acquired at %s) is released or re-transferred after its ownership was handed off (R4: the new owner releases it)",
						val.what, a.pos(val.pos))
				case pf.role == roleTransfer && bits&bitDeferred != 0:
					a.report(val, "after-transfer", arg.Pos(),
						"pooled %s (acquired at %s) is handed off while the deferred release at %s is still pending (R4: the defer will double-release it)",
						val.what, a.pos(val.pos), a.pos(val.deferPos))
				case pf.role == roleTransfer && bits&bitReleased != 0 && bits&bitOwned == 0:
					a.report(val, "use-after-release", arg.Pos(),
						"pooled %s (acquired at %s) is handed off after it was released (R2)",
						val.what, a.pos(val.pos))
				}
			}
			if pf.role == roleRelease {
				st.own[val] = (bits &^ bitOwned) | bitReleased
			} else {
				st.own[val] = (bits &^ bitOwned) | bitTransferred
			}
		}
	case roleBorrow:
		// Uses only; the generic sweep checks released state.
	}
}

// isBareStatement reports whether call is the entire expression of an
// ExprStmt in the body, i.e. its result is dropped.
func (a *pcAnalysis) isBareStatement(call *ast.CallExpr) bool {
	bare := false
	ast.Inspect(a.body, func(n ast.Node) bool {
		if es, ok := n.(*ast.ExprStmt); ok && es.X == call {
			bare = true
		}
		return !bare
	})
	return bare
}

// applyDefer handles deferred releases — the blessed cleanup idiom —
// including deferred closures that release captured values.
func (a *pcAnalysis) applyDefer(s *ast.DeferStmt, st *pcState, report bool, handled map[*ast.Ident]bool) {
	if pf, ok := a.poolSite(s.Call); ok && pf.role == roleRelease && pf.arg < len(s.Call.Args) {
		arg := s.Call.Args[pf.arg]
		for _, val := range a.values(st, arg) {
			bits := st.own[val]
			if report && bits&bitTransferred != 0 && bits&bitOwned == 0 {
				a.report(val, "after-transfer", arg.Pos(),
					"pooled %s (acquired at %s) gets a deferred release after its ownership was handed off (R4: the new owner releases it)",
					val.what, a.pos(val.pos))
			}
			st.own[val] |= bitDeferred
			val.deferPos = s.Pos()
		}
		if id, ok := arg.(*ast.Ident); ok {
			handled[id] = true
		}
		return
	}
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		// defer func() { ... PutBuf(buf) ... }(): scan the literal for
		// releases of values tracked in the current state.
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if pf, ok := a.poolSite(call); ok && pf.role == roleRelease && pf.arg < len(call.Args) {
				for _, val := range a.values(st, call.Args[pf.arg]) {
					st.own[val] |= bitDeferred
					val.deferPos = s.Pos()
				}
			}
			return true
		})
		return
	}
	a.applyCall(s.Call, st, report, handled)
}

// applyGo reports pooled values escaping into a goroutine, as
// arguments or as closure captures.
func (a *pcAnalysis) applyGo(s *ast.GoStmt, st *pcState, report bool, handled map[*ast.Ident]bool) {
	escape := func(val *poolValue, pos token.Pos) {
		if report {
			a.report(val, "escape-go", pos,
				"pooled %s (acquired at %s) escapes into a goroutine: its lifetime now races the pool (R5: copy the data out, hand off through a registered transfer, or //lint:ignore poolcheck <reason>)",
				val.what, a.pos(val.pos))
		}
		st.own[val] = (st.own[val] &^ bitOwned) | bitTransferred
	}
	for _, arg := range s.Call.Args {
		for _, val := range a.values(st, arg) {
			escape(val, arg.Pos())
		}
		if id, ok := arg.(*ast.Ident); ok {
			handled[id] = true
		}
	}
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		for obj, vals := range st.bind {
			if capturesObject(a.pkg, lit, obj) {
				for _, val := range vals {
					escape(val, s.Pos())
				}
			}
		}
	}
}

// genericUses reports remaining uses of released values anywhere in a
// node's evaluated syntax (R2). FuncLit bodies run later under a
// different state, so they are skipped; capture effects are handled in
// applyExpr/applyGo.
func (a *pcAnalysis) genericUses(node ast.Node, st *pcState, report bool, handled map[*ast.Ident]bool) {
	if !report || node == nil {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || handled[id] {
			return true
		}
		obj := a.pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		for _, val := range st.bind[obj] {
			bits := st.own[val]
			if bits&bitReleased != 0 && bits&bitOwned == 0 {
				a.report(val, "use-after-release", id.Pos(),
					"pooled %s (acquired at %s) is used after it was released (R2: the pool may already have handed it to another owner)",
					val.what, a.pos(val.pos))
			}
		}
		return true
	})
}

// pos renders a position for embedding in a finding message:
// base-name:line:col, so messages stay readable (and stable across
// checkouts) while the finding's own File field carries the full path.
func (a *pcAnalysis) pos(p token.Pos) string {
	pp := a.pkg.Fset.Position(p)
	return fmt.Sprintf("%s:%d:%d", filepath.Base(pp.Filename), pp.Line, pp.Column)
}

// capturesObject reports whether a function literal's body references
// obj, a variable declared outside the literal.
func capturesObject(pkg *Package, lit *ast.FuncLit, obj types.Object) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
			captured = true
		}
		return !captured
	})
	return captured
}
