// Command xmlint is the repository's invariant lint suite as a go vet
// tool. It machine-checks the contracts every PR must preserve:
//
//	determinism  fixed-seed campaigns are byte-reproducible — no
//	             wall-clock, environment, unseeded math/rand, or
//	             map-order-dependent serialisation in the deterministic
//	             packages
//	obsnil       observability handles nil-guard their own methods and
//	             callers never pre-check them, keeping "obs off" at one
//	             nil check on the hot path
//	registry     target registration happens at program start only,
//	             so the target inventory is complete
//	seqfield     the raw record codec covers every JSONRecord field
//	             encoding/json serialises, so the wire format cannot drift
//
// Run it through the go command, which feeds it one type-checked
// package at a time with cached export data:
//
//	go build -o bin/xmlint ./cmd/xmlint
//	go vet -vettool=$(pwd)/bin/xmlint ./...
//
// (or just `make lint`). Legitimate exceptions are annotated in place:
// //xmlint:allow <analyzer> -- <reason>. See internal/lint.
package main

import "xmrobust/internal/lint"

func main() {
	lint.Main(lint.Analyzers()...)
}
