package analysis

import (
	"go/ast"
	"go/types"
)

// LockAtomic enforces a single synchronization discipline per field, the
// static half of what `go test -race` checks dynamically. The engine's
// RCU design (DESIGN.md §6) leans on two conventions this analyzer pins
// down:
//
//  1. A variable or struct field accessed through the sync/atomic
//     free functions (atomic.LoadUint64(&x.f), atomic.AddInt64(&x.f, 1),
//     ...) anywhere in a package must be accessed atomically everywhere
//     in that package. A plain read races every atomic write, and a
//     plain write under a mutex is still a race against lock-free atomic
//     readers — mixing mutex and atomic discipline on one field is the
//     classic reviewer-only bug this makes mechanical.
//
//  2. atomic.Pointer / atomic.Value struct fields are publication
//     points: in this repo they hold the engine's RCU state (one frozen
//     model per generation) and the serving layer's read views.
//     Store/Swap on such a field is only legal in the file that declares
//     the owning struct — the blessed publication paths (the engine's
//     publish/publishIfEpoch behind Install, InstallHierarchical and
//     CommitInstall, and the Server view rebuild) live next to the type
//     they publish for. A swap from
//     anywhere else bypasses the install gate, the epoch stamping, and
//     the cache drop that make the swap safe.
//
// Load/CompareAndSwap on atomic.Pointer fields are unrestricted: reading
// the current generation from anywhere is the whole point of RCU.
var LockAtomic = &Analyzer{
	Name: "lockatomic",
	Doc: "a field accessed via sync/atomic must be accessed atomically " +
		"everywhere; atomic.Pointer/Value snapshot fields may be " +
		"stored/swapped only from the file declaring their struct",
	Run: runLockAtomic,
}

// atomicAccessFuncs is the sync/atomic free-function surface taking
// &addr as the first argument.
var atomicAccessFuncs = map[string]bool{
	"AddInt32": true, "AddInt64": true, "AddUint32": true, "AddUint64": true, "AddUintptr": true,
	"LoadInt32": true, "LoadInt64": true, "LoadUint32": true, "LoadUint64": true, "LoadUintptr": true, "LoadPointer": true,
	"StoreInt32": true, "StoreInt64": true, "StoreUint32": true, "StoreUint64": true, "StoreUintptr": true, "StorePointer": true,
	"SwapInt32": true, "SwapInt64": true, "SwapUint32": true, "SwapUint64": true, "SwapUintptr": true, "SwapPointer": true,
	"CompareAndSwapInt32": true, "CompareAndSwapInt64": true, "CompareAndSwapUint32": true,
	"CompareAndSwapUint64": true, "CompareAndSwapUintptr": true, "CompareAndSwapPointer": true,
}

func runLockAtomic(pass *Pass) error {
	atomicObjs := make(map[types.Object]bool) // objects accessed via atomic free functions
	sanctioned := make(map[*ast.Ident]bool)   // idents inside an atomic call's &addr argument

	// Pass 1: record every object whose address feeds a sync/atomic free
	// function, and remember the idents inside those arguments so pass 2
	// does not flag the sanctioned accesses themselves.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if !isAtomicFreeFunc(pass, call) {
				return true
			}
			addr, ok := call.Args[0].(*ast.UnaryExpr)
			if !ok {
				return true
			}
			if obj := addressedObject(pass, addr.X); obj != nil {
				atomicObjs[obj] = true
			}
			ast.Inspect(call.Args[0], func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					sanctioned[id] = true
				}
				return true
			})
			return true
		})
	}

	// Pass 2: every other access to an atomically-managed object is a
	// mixed-discipline race — a plain read, a plain write, or a
	// mutex-guarded access that atomic readers do not see.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || sanctioned[id] {
				return true
			}
			obj := pass.Info.Uses[id]
			if obj == nil || !atomicObjs[obj] {
				return true
			}
			pass.Reportf(id.Pos(), "%s is accessed with sync/atomic elsewhere in this package; this plain access races the atomic ones — use the atomic functions everywhere (a mutex does not help: atomic readers do not take it)", id.Name)
			return true
		})
	}

	// Publication discipline: Store/Swap on atomic.Pointer / atomic.Value
	// struct fields only from the file declaring the owning struct.
	for _, file := range pass.Files {
		filename := pass.Fset.Position(file.Pos()).Filename
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Store" && sel.Sel.Name != "Swap") {
				return true
			}
			field := fieldSelection(pass, sel.X)
			if field == nil || !isAtomicPublication(field.Type()) {
				return true
			}
			declFile := pass.Fset.Position(field.Pos()).Filename
			if declFile == filename {
				return true
			}
			pass.Reportf(sel.Pos(), "%s on atomic snapshot field %s outside %s, the file that declares it; publish through the owner's install methods so epoch stamping and cache invalidation stay with the swap", sel.Sel.Name, field.Name(), shortFile(declFile))
			return true
		})
	}
	return nil
}

// isAtomicFreeFunc reports whether call is sync/atomic.<Load|Store|...>.
func isAtomicFreeFunc(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !atomicAccessFuncs[sel.Sel.Name] {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := pass.Info.Uses[id].(*types.PkgName)
	return ok && pkgName.Imported().Path() == "sync/atomic"
}

// addressedObject resolves &expr's operand to the variable or field
// object being accessed atomically: a plain identifier or the terminal
// field of a selector chain.
func addressedObject(pass *Pass, expr ast.Expr) types.Object {
	switch e := expr.(type) {
	case *ast.Ident:
		if v, ok := pass.Info.Uses[e].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if v, ok := pass.Info.Uses[e.Sel].(*types.Var); ok {
			return v
		}
	}
	return nil
}

// fieldSelection resolves expr to a struct-field object when expr is a
// selector chain ending in a field (x.f, x.y.f); nil otherwise.
func fieldSelection(pass *Pass, expr ast.Expr) *types.Var {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	v, ok := pass.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	return v
}

// isAtomicPublication reports whether t is sync/atomic.Pointer[T] or
// sync/atomic.Value — the types that publish snapshot state. The scalar
// atomics (Int32, Uint64, Bool, ...) are counters and gates, freely
// stored from anywhere.
func isAtomicPublication(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return false
	}
	return obj.Name() == "Pointer" || obj.Name() == "Value"
}

// shortFile trims a path to its final element for readable diagnostics.
func shortFile(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
