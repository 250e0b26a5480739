package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strconv"
	"strings"
)

// SeqFieldAnalyzer cross-checks the record codec against the wire
// format. The wire format is encoding/json's rendering of
// campaign.JSONRecord, by reflection over struct tags; the raw codec
// reproduces those bytes with hand-written encode/decode functions. A
// field added to the struct but not to the hand-written path would
// silently fork the wire format — the byte-identical guarantee the
// golden tests pin (and the merge/resume machinery relies on) would
// drift without a test failing until the exact field was populated. The analyzer therefore requires every eligible field
// of the record structs to be (a) referenced by the raw encoder and
// (b) named by a key case in the raw decoder.
var SeqFieldAnalyzer = &Analyzer{
	Name: "seqfield",
	Doc:  "every JSONRecord (and nested codec struct) field must be handled by both the raw encoder and the raw decoder",
	Run:  runSeqField,
}

// codecStructChecks describes one struct/codec-path pairing: where the
// struct comes from, and which functions must cover its fields.
type codecStructCheck struct {
	// structName resolves in the campaign package scope ("" when the
	// struct is reached through fieldOf instead).
	structName string
	// fieldOf/field: resolve the struct as the pointee of this
	// JSONRecord field (for nested structs owned by other packages,
	// like inject.Injection).
	fieldOf string
	// encodeFn must reference every field as a selector.
	encodeFn string
	// decodeFn must name every field's json key in a case clause.
	decodeFn string
}

var codecStructChecks = []codecStructCheck{
	{structName: "JSONRecord", encodeFn: "rawAppendRecord", decodeFn: "rawDecodeRecord"},
	{structName: "JSONHMEvent", encodeFn: "rawAppendHMEvent", decodeFn: "hmEvent"},
	{fieldOf: "Divergence", encodeFn: "rawAppendRecord", decodeFn: "divergenceVal"},
	{fieldOf: "Injection", encodeFn: "rawAppendRecord", decodeFn: "injectionVal"},
}

func runSeqField(pass *Pass) error {
	if internalPackageName(pass.Pkg.Path()) != "campaign" {
		return nil
	}
	scope := pass.Pkg.Scope()
	recObj := scope.Lookup("JSONRecord")
	if recObj == nil {
		return nil // not the codec-bearing campaign package (partial fixture)
	}
	recStruct, ok := recObj.Type().Underlying().(*types.Struct)
	if !ok {
		return nil
	}

	for _, chk := range codecStructChecks {
		var st *types.Struct
		var typeName string
		switch {
		case chk.structName != "":
			obj := scope.Lookup(chk.structName)
			if obj == nil {
				continue
			}
			st, _ = obj.Type().Underlying().(*types.Struct)
			typeName = chk.structName
		default:
			st, typeName = pointeeStruct(recStruct, chk.fieldOf)
		}
		if st == nil {
			continue
		}
		encFn := findFuncDecl(pass, chk.encodeFn)
		decFn := findFuncDecl(pass, chk.decodeFn)
		if encFn == nil || decFn == nil {
			continue // the raw codec seam moved; the golden tests will say so
		}
		pass.checkCodecStruct(typeName, st, encFn, decFn, chk)
	}
	return nil
}

// pointeeStruct resolves rec's named field as *T and returns T's
// underlying struct and name.
func pointeeStruct(rec *types.Struct, field string) (*types.Struct, string) {
	for i := 0; i < rec.NumFields(); i++ {
		if rec.Field(i).Name() != field {
			continue
		}
		ptr, ok := rec.Field(i).Type().(*types.Pointer)
		if !ok {
			return nil, ""
		}
		named, ok := ptr.Elem().(*types.Named)
		if !ok {
			return nil, ""
		}
		st, _ := named.Underlying().(*types.Struct)
		return st, named.Obj().Name()
	}
	return nil, ""
}

// findFuncDecl finds a package-level function or method by name in the
// package's non-test files.
func findFuncDecl(pass *Pass, name string) *ast.FuncDecl {
	for _, f := range pass.SourceFiles() {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == name {
				return fd
			}
		}
	}
	return nil
}

// checkCodecStruct verifies each eligible field of st against the
// encode and decode functions.
func (p *Pass) checkCodecStruct(typeName string, st *types.Struct, encFn, decFn *ast.FuncDecl, chk codecStructCheck) {
	caseKeys := decodeCaseKeys(decFn)
	for i := 0; i < st.NumFields(); i++ {
		field := st.Field(i)
		if !field.Exported() {
			continue
		}
		jsonName := jsonTagName(st.Tag(i), field.Name())
		if jsonName == "-" {
			continue
		}
		if !encoderReferences(p, encFn, field) {
			p.Reportf(fieldPos(encFn, field), "field %s.%s (json %q) is not referenced by the raw encoder %s — the raw codec must emit byte-identical wire bytes to encoding/json, so every field needs a hand-written encode arm",
				typeName, field.Name(), jsonName, chk.encodeFn)
		}
		if !caseKeys[jsonName] {
			p.Reportf(fieldPos(decFn, field), "json key %q (field %s.%s) has no case in the raw decoder %s — unknown keys fall back to encoding/json per line, silently costing the allocation-free path",
				jsonName, typeName, field.Name(), chk.decodeFn)
		}
	}
}

// fieldPos anchors a diagnostic at the field's declaration when the
// type checker knows it (same package, or export data carrying
// positions), else at the codec function that misses it.
func fieldPos(fallback *ast.FuncDecl, field *types.Var) token.Pos {
	if pos := field.Pos(); pos.IsValid() {
		return pos
	}
	return fallback.Pos()
}

// encoderReferences reports whether fn's body selects the given struct
// field anywhere (rec.Field, inj.Field, ...), resolved through the type
// checker's selections so renamed locals still count.
func encoderReferences(p *Pass, fn *ast.FuncDecl, field *types.Var) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if selObj, ok := p.Info.Selections[sel]; ok && selObj.Obj() == field {
			found = true
			return false
		}
		// Uses covers qualified and non-selection paths.
		if obj, ok := p.Info.Uses[sel.Sel]; ok && obj == field {
			found = true
			return false
		}
		return true
	})
	return found
}

// decodeCaseKeys collects the string literals of every case clause in
// fn's body — the decoder's key dispatch.
func decodeCaseKeys(fn *ast.FuncDecl) map[string]bool {
	keys := map[string]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		cc, ok := n.(*ast.CaseClause)
		if !ok {
			return true
		}
		for _, e := range cc.List {
			if lit, ok := e.(*ast.BasicLit); ok {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					keys[s] = true
				}
			}
		}
		return true
	})
	return keys
}

// jsonTagName extracts the json key for a field (tag name, or the field
// name when untagged, mirroring encoding/json).
func jsonTagName(tag, fieldName string) string {
	j := reflect.StructTag(tag).Get("json")
	name, _, _ := strings.Cut(j, ",")
	if name == "" {
		return fieldName
	}
	return name
}
