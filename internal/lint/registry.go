package lint

import (
	"go/ast"
	"go/types"
)

// RegistryAnalyzer enforces inventory completeness: the execution-target
// registry must be fully populated by the time main starts, because
// discovery surfaces (xmfuzz -list, target.New error messages) and
// checkpoint validation all treat the registry as the complete universe.
// That holds exactly when every target.Register call runs from an init
// function or a package-level variable initialiser — never from
// arbitrary runtime code, where a registration could race a lookup or
// depend on call order. (Test plans need no rule: their catalogue is a
// closed list beside campaign.BuildPlan.)
var RegistryAnalyzer = &Analyzer{
	Name: "registry",
	Doc:  "target registration must happen in init or package-level declarations",
	Run:  runRegistry,
}

// isRegistrar reports whether fn is Register of an internal/target
// package.
func isRegistrar(fn *types.Func) bool {
	return fn.Name() == "Register" && internalPackageName(fn.Pkg().Path()) == "target"
}

func runRegistry(pass *Pass) error {
	for _, f := range pass.SourceFiles() {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				// Package-level var initialisers run before init: fine.
				continue
			case *ast.FuncDecl:
				atStart := d.Recv == nil && d.Name.Name == "init"
				if d.Body == nil {
					continue
				}
				ast.Inspect(d.Body, func(n ast.Node) bool {
					if _, isLit := n.(*ast.FuncLit); isLit {
						// A closure may run any time, even one built inside
						// init — registrations inside it escape program start.
						pass.flagRegistrations(n)
						return false
					}
					if call, ok := n.(*ast.CallExpr); ok {
						pass.checkRegistration(call, atStart)
					}
					return true
				})
			}
		}
	}
	return nil
}

// flagRegistrations walks a subtree in which no registration can be
// valid (function literals) and reports every registrar call.
func (p *Pass) flagRegistrations(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			p.checkRegistration(call, false)
		}
		return true
	})
}

// checkRegistration reports the call if it resolves to a registrar and
// the context is not program start.
func (p *Pass) checkRegistration(call *ast.CallExpr, atStart bool) {
	if atStart {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		// Same-package calls (Register inside target) arrive as plain
		// idents.
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return
		}
		fn, ok := p.Info.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg() != p.Pkg {
			return
		}
		if isRegistrar(fn) {
			p.reportRegistration(call, fn)
		}
		return
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if isRegistrar(fn) {
		p.reportRegistration(call, fn)
	}
}

func (p *Pass) reportRegistration(call *ast.CallExpr, fn *types.Func) {
	p.Reportf(call.Pos(), "%s.%s called outside init or a package-level declaration — registries must be complete at program start so inventories, checkpoints, and discovery surfaces agree on the full set",
		fn.Pkg().Name(), fn.Name())
}
