package xmrobust_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"xmrobust/pkg/xmrobust"
)

// TestGoldenDigests pins absolute SHA-256 digests of fixed campaigns'
// merged logs, each the bytes `xmfuzz ARGS -o LOG` writes. Every other
// byte-identity test is relative (two execution paths must agree), so a
// mistake both paths share passes them all; these digests do not move
// unless a test's observable log does. For the paper campaign they also
// pin the report sections derived from the log: the plan line, Table
// III, the CRASH tally, Fig. 8 and the issue list. The engine and
// machine-pool lines are left out, because they account for how the
// campaign ran, not what it found.
func TestGoldenDigests(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opts    []xmrobust.Option
		records int
		log     string
		summary string // "": not pinned
	}{
		{"paper", nil, 2661,
			"0c51e5725d95d3843a1c45d511f6d36fdcc777b2c915d9b685c21a19a5dcc906",
			"b1754f301c39ceaa07c890fca0a19f588a65b8be24c1acd38e80009eb405a22e"},
		{"paper-workers1", []xmrobust.Option{xmrobust.WithWorkers(1)}, 2661,
			"0c51e5725d95d3843a1c45d511f6d36fdcc777b2c915d9b685c21a19a5dcc906",
			"b1754f301c39ceaa07c890fca0a19f588a65b8be24c1acd38e80009eb405a22e"},
		{"paper-patched", []xmrobust.Option{xmrobust.WithPatchedKernel()}, 2661,
			"64e04f18f71b5ac477dc0f80518a3d475dd17a79205da6d541bb2da91794b5ed",
			"161efaa909bc5321a296a11e1b62717216f193768d939889d5180fe9e23f1408"},
		{"phantom", []xmrobust.Option{xmrobust.WithPlan("phantom")}, 50,
			"69fcf4833728b2b273dc1367865550a5bb11e42187dfe5d52ed3e3cdc5515fea", ""},
		{"rand300", []xmrobust.Option{xmrobust.WithPlan("rand:300"), xmrobust.WithSeed(1)}, 300,
			"972a420ef6cc3e402a573d9db647acfd5361769fcb8f16c6e81e2d16c35123fe", ""},
		{"inject-rand200", []xmrobust.Option{xmrobust.WithTarget("inject:sim"),
			xmrobust.WithPlan("rand:200"), xmrobust.WithSeed(1)}, 200,
			"4fa5fe3e47ec7ee7afc9d429e5547a8db19c918dd2c8af585f01fdf9f89d1300", ""},
		{"feedback100", []xmrobust.Option{xmrobust.WithPlan("feedback:100"), xmrobust.WithSeed(1)}, 100,
			"0ef43537d68e28e4d0830877296ab459cd841320d5cb047107dfc5aae3738f96", ""},
		{"feedback300", []xmrobust.Option{xmrobust.WithPlan("feedback:300"), xmrobust.WithSeed(1)}, 300,
			"51b12f62079e6438398a2bd1fb82d46e99241defb8685112f3a52d0015d2e9b0", ""},
		{"diff-rand40", []xmrobust.Option{xmrobust.WithTarget("diff:sim,phantom"),
			xmrobust.WithPlan("rand:40"), xmrobust.WithSeed(7), xmrobust.WithMAFs(1)}, 40,
			"6300616dea5e47d624b7eaee878cfc4e6c07eb9fc472b6f953689f0aa7a6bb36", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := xmrobust.Run(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			var log bytes.Buffer
			n, err := rep.WriteLog(&log)
			if err != nil {
				t.Fatal(err)
			}
			if n != tc.records {
				t.Errorf("log has %d records, want %d", n, tc.records)
			}
			if got := digest(log.String()); got != tc.log {
				t.Errorf("log digest %s, want %s", got, tc.log)
			}
			if tc.summary == "" {
				return
			}
			sum := rep.Summary()
			cut := strings.Index(sum, "\nengine: ")
			if cut < 0 {
				t.Fatalf("summary has no engine line:\n%s", sum)
			}
			if got := digest(sum[:cut]); got != tc.summary {
				t.Errorf("summary digest %s, want %s; summary:\n%s", got, tc.summary, sum[:cut])
			}
		})
	}
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}
