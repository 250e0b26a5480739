// Package dict implements the data-type dictionaries of the data type
// fault model: for every XM interface type, a set of test values "likely
// to contain exceptional values for functions" (paper §III.A), plus named
// value sets used as per-parameter overrides.
//
// Dictionaries serialise to and from the Data Type XML of paper Fig. 3:
//
//	<DataType Name="xm_u32_t">
//	  <BasicType>unsigned int</BasicType>
//	  <TestValues>
//	    <Value>0</Value>
//	    ...
//	  </TestValues>
//	</DataType>
//
// Values are either numeric literals or symbolic tokens (NULL, VALID,
// VALID_MID, …) resolved against the test partition's memory layout at
// campaign time — the equivalent of the linker fixing up the mutant
// source's buffer addresses.
package dict

import (
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"
)

// Validity is the dictionary's a-priori hint about a value: definitely
// valid for its type's typical use, definitely invalid, or dependent on
// the hypercall ("valid / invalid input depending on hypercall", the
// asterisk of paper Table II). The hint drives fault-masking avoidance and
// the blame analysis of the log-analysis phase; it is never shown to the
// kernel.
type Validity int

// Validity hints.
const (
	Depends Validity = iota
	Valid
	Invalid
)

func (v Validity) String() string {
	switch v {
	case Valid:
		return "valid"
	case Invalid:
		return "invalid"
	default:
		return "depends"
	}
}

// ParseValidity is the inverse of Validity.String (empty means Depends).
// Campaign-log readers use it to reconstruct dictionary metadata.
func ParseValidity(s string) (Validity, error) { return parseValidity(s) }

// parseValidity is the inverse of Validity.String (empty means Depends).
func parseValidity(s string) (Validity, error) {
	switch s {
	case "", "depends":
		return Depends, nil
	case "valid":
		return Valid, nil
	case "invalid":
		return Invalid, nil
	default:
		return Depends, fmt.Errorf("dict: unknown validity %q", s)
	}
}

// Value is one dictionary entry: a literal number or a symbolic token,
// with an optional description (the paper's "MIN_S32", "ZERO", …) and a
// validity hint.
type Value struct {
	Raw      string
	Desc     string
	Validity Validity
}

// Symbolic tokens resolved against the test partition's layout.
const (
	SymNull      = "NULL"       // address 0
	SymValid     = "VALID"      // base of the test partition's data area
	SymValidMid  = "VALID_MID"  // middle of the data area
	SymValidLast = "VALID_LAST" // last naturally aligned word of the area
	SymValidEnd  = "VALID_END"  // one past the end of the area
	SymUnaligned = "UNALIGNED"  // data area base + 1
	SymOtherPart = "OTHER_PART" // another partition's data area
	SymKernel    = "KERNEL"     // inside the hypervisor image
	SymROM       = "ROM"        // inside the boot PROM
	SymIO        = "IO"         // inside the I/O bank
)

// IsSymbol reports whether the value is a symbolic token (vs a literal).
func (v Value) IsSymbol() bool {
	if _, ok := (Layout{}).symbol(v.Raw); ok {
		return true
	}
	_, err := parseLiteral(v.Raw)
	return err != nil
}

// parseLiteral parses a decimal/hex literal into its 64-bit ABI image.
// Negative literals are sign-extended two's complement.
func parseLiteral(s string) (uint64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("dict: empty value")
	}
	if strings.HasPrefix(t, "-") {
		v, err := strconv.ParseInt(t, 0, 64)
		if err != nil {
			return 0, err
		}
		return uint64(v), nil
	}
	return strconv.ParseUint(t, 0, 64)
}

// String renders the value with its description, as campaign logs show it.
func (v Value) String() string {
	if v.Desc != "" {
		return v.Raw + "(" + v.Desc + ")"
	}
	return v.Raw
}

// TypeSet is the test-value set of one data type (one <DataType> element).
type TypeSet struct {
	Name      string
	BasicType string
	Values    []Value
}

// NamedSet is a reusable per-parameter override set (<ValueSet> element).
type NamedSet struct {
	Name   string
	Values []Value
}

// Dictionary holds all type sets and named override sets of a campaign.
type Dictionary struct {
	types    map[string]*TypeSet
	named    map[string]*NamedSet
	typeOrd  []string
	namedOrd []string
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{
		types: make(map[string]*TypeSet),
		named: make(map[string]*NamedSet),
	}
}

// AddType registers (or replaces) a type set.
func (d *Dictionary) AddType(ts TypeSet) {
	if _, ok := d.types[ts.Name]; !ok {
		d.typeOrd = append(d.typeOrd, ts.Name)
	}
	cp := ts
	cp.Values = append([]Value(nil), ts.Values...)
	d.types[ts.Name] = &cp
}

// AddNamed registers (or replaces) a named override set.
func (d *Dictionary) AddNamed(ns NamedSet) {
	if _, ok := d.named[ns.Name]; !ok {
		d.namedOrd = append(d.namedOrd, ns.Name)
	}
	cp := ns
	cp.Values = append([]Value(nil), ns.Values...)
	d.named[ns.Name] = &cp
}

// Type returns the value set of a data type, resolving the Table I
// extended aliases (xmAddress_t, xmSize_t, xmTime_t, …) to their own sets
// when present and to their basic type otherwise.
func (d *Dictionary) Type(name string) (*TypeSet, bool) {
	if ts, ok := d.types[name]; ok {
		return ts, true
	}
	if alias, ok := typeAliases[name]; ok {
		if ts, ok := d.types[alias]; ok {
			return ts, true
		}
	}
	return nil, false
}

// Named returns a named override set.
func (d *Dictionary) Named(name string) (*NamedSet, bool) {
	ns, ok := d.named[name]
	return ns, ok
}

// Types lists the type sets in registration order.
func (d *Dictionary) Types() []TypeSet {
	out := make([]TypeSet, 0, len(d.typeOrd))
	for _, n := range d.typeOrd {
		out = append(out, *d.types[n])
	}
	return out
}

// NamedSets lists the override sets in registration order.
func (d *Dictionary) NamedSets() []NamedSet {
	out := make([]NamedSet, 0, len(d.namedOrd))
	for _, n := range d.namedOrd {
		out = append(out, *d.named[n])
	}
	return out
}

// typeAliases maps Table I extended types to the basic type whose
// dictionary they fall back to.
var typeAliases = map[string]string{
	"xmWord_t":      "xm_u32_t",
	"xmAddress_t":   "xm_u32_t",
	"xmIoAddress_t": "xm_u32_t",
	"xmSize_t":      "xm_u32_t",
	"xmId_t":        "xm_u32_t",
	"xmSSize_t":     "xm_s32_t",
	"xmTime_t":      "xm_s64_t",
}

// --- XML form (paper Fig. 3) -------------------------------------------------

type xmlDoc struct {
	XMLName xml.Name      `xml:"DataTypes"`
	Types   []xmlDataType `xml:"DataType"`
	Sets    []xmlValueSet `xml:"ValueSet"`
}

type xmlDataType struct {
	Name      string     `xml:"Name,attr"`
	BasicType string     `xml:"BasicType"`
	Values    []xmlValue `xml:"TestValues>Value"`
}

type xmlValueSet struct {
	Name   string     `xml:"Name,attr"`
	Values []xmlValue `xml:"Value"`
}

type xmlValue struct {
	Desc     string `xml:"Desc,attr,omitempty"`
	Validity string `xml:"Validity,attr,omitempty"`
	Raw      string `xml:",chardata"`
}

func fromXMLValues(in []xmlValue) ([]Value, error) {
	out := make([]Value, 0, len(in))
	for _, xv := range in {
		val, err := parseValidity(xv.Validity)
		if err != nil {
			return nil, err
		}
		raw := strings.TrimSpace(xv.Raw)
		if raw == "" {
			return nil, fmt.Errorf("dict: empty <Value>")
		}
		out = append(out, Value{Raw: raw, Desc: xv.Desc, Validity: val})
	}
	return out, nil
}

func toXMLValues(in []Value) []xmlValue {
	out := make([]xmlValue, 0, len(in))
	for _, v := range in {
		xv := xmlValue{Raw: v.Raw, Desc: v.Desc}
		if v.Validity != Depends {
			xv.Validity = v.Validity.String()
		}
		out = append(out, xv)
	}
	return out
}

// Parse reads a Data Type XML document (paper Fig. 3).
func Parse(data []byte) (*Dictionary, error) {
	var doc xmlDoc
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("dict: %w", err)
	}
	d := NewDictionary()
	for _, t := range doc.Types {
		if t.Name == "" {
			return nil, fmt.Errorf("dict: <DataType> without Name")
		}
		vals, err := fromXMLValues(t.Values)
		if err != nil {
			return nil, err
		}
		if len(vals) == 0 {
			return nil, fmt.Errorf("dict: type %q has no test values", t.Name)
		}
		d.AddType(TypeSet{Name: t.Name, BasicType: strings.TrimSpace(t.BasicType), Values: vals})
	}
	for _, s := range doc.Sets {
		if s.Name == "" {
			return nil, fmt.Errorf("dict: <ValueSet> without Name")
		}
		vals, err := fromXMLValues(s.Values)
		if err != nil {
			return nil, err
		}
		d.AddNamed(NamedSet{Name: s.Name, Values: vals})
	}
	return d, nil
}

// Emit writes the dictionary as a Data Type XML document.
func (d *Dictionary) Emit() ([]byte, error) {
	doc := xmlDoc{}
	for _, ts := range d.Types() {
		doc.Types = append(doc.Types, xmlDataType{
			Name: ts.Name, BasicType: ts.BasicType, Values: toXMLValues(ts.Values),
		})
	}
	for _, ns := range d.NamedSets() {
		doc.Sets = append(doc.Sets, xmlValueSet{Name: ns.Name, Values: toXMLValues(ns.Values)})
	}
	out, err := xml.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("dict: %w", err)
	}
	return append([]byte(xml.Header), append(out, '\n')...), nil
}
