package netauth

// Conformance table: every decision the server can reach — approve, deny,
// lockout, throttle, quarantine, unknown chip, budget exhaustion, moved,
// migrating, key exchange success, key mismatch, batched burn — is driven
// against a seeded server, and each case pins its outcome script, its
// challenge-burn count and its byte-exact WAL append stream.  The WAL
// streams live in testdata/conformance_wal.golden; they were captured while
// the JSON protocol still ran beside the binary one and both front ends
// were shown to write identical bytes, so a change of wire encoding can
// never silently change what the server journals.
//
// Regenerate the golden file (only for an intended WAL change) with
//
//	go test ./internal/netauth -run TestConformanceV2 -update-golden

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"xorpuf/internal/core"
	"xorpuf/internal/keyex"
	"xorpuf/internal/registry"
	"xorpuf/internal/silicon"
	"xorpuf/internal/wire"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/conformance_wal.golden")

const confGolden = "testdata/conformance_wal.golden"

// walRec is one captured WAL append.
type walRec struct {
	typ     byte
	payload string
}

// walCapture tails a registry's append stream.
type walCapture struct {
	mu   sync.Mutex
	recs []walRec
}

func (w *walCapture) observe(_ uint64, typ byte, payload []byte) {
	w.mu.Lock()
	w.recs = append(w.recs, walRec{typ: typ, payload: string(payload)})
	w.mu.Unlock()
}

func (w *walCapture) snapshot() []walRec {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]walRec(nil), w.recs...)
}

// confFixture is one server under test, with its WAL tap.
type confFixture struct {
	addr  string
	srv   *Server
	model *core.ChipModel
	wal   *walCapture
}

const confChip = "chip-A"

// newConfFixture builds a deterministic server: synthetic model (no
// silicon, no randomness beyond the fixed seeds), seeded registry, WAL tap
// attached after registration and before any session traffic.
func newConfFixture(t *testing.T, numChallenges, budget int) *confFixture {
	t.Helper()
	model := benchChipModel(7, 4, 64)
	reg, err := registry.Open("", registry.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	if err := reg.Register(confChip, model, budget); err != nil {
		t.Fatal(err)
	}
	srv := NewServerWithRegistry(numChallenges, 7, reg)
	wal := &walCapture{}
	reg.AddAppendObserver(wal.observe)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(srv.Close)
	return &confFixture{addr: ln.Addr().String(), srv: srv, model: model, wal: wal}
}

// confOutcome is the observable shape of one session's result.
type confOutcome struct {
	kind        string // "approved", "denied", "key_established", "error"
	code        string
	retryable   bool
	hasRedirect bool
	mismatches  int
	challenges  int
}

func outcomeOf(res Result, err error) confOutcome {
	if err != nil {
		o := confOutcome{kind: "error"}
		var pe *ProtocolError
		if errors.As(err, &pe) {
			o.code = pe.Code
			o.retryable = pe.Retryable
			o.hasRedirect = pe.Redirect != ""
		}
		return o
	}
	o := confOutcome{mismatches: res.Mismatches, challenges: res.Challenges}
	if res.Approved {
		o.kind = "approved"
	} else {
		o.kind = "denied"
	}
	return o
}

// Outcome shorthands for the table below.
func approvedN(n int) confOutcome { return confOutcome{kind: "approved", challenges: n} }
func deniedN(mismatches, n int) confOutcome {
	return confOutcome{kind: "denied", mismatches: mismatches, challenges: n}
}
func refused(code string, retryable bool) confOutcome {
	return confOutcome{kind: "error", code: code, retryable: retryable}
}

func (f *confFixture) client(chipID string, dev core.Device) *V2Client {
	return &V2Client{Addr: f.addr, ChipID: chipID, Device: dev, Cond: silicon.Nominal,
		Timeout: 10 * time.Second, Policy: RetryPolicy{MaxAttempts: 1}}
}

// auth runs one single-attempt session for dev.
func (f *confFixture) auth(chipID string, dev core.Device) confOutcome {
	c := f.client(chipID, dev)
	defer c.Close()
	return outcomeOf(c.Authenticate(context.Background()))
}

func (f *confFixture) genuine() core.Device { return modelAnswerDevice{m: f.model} }

// keyexZeroMAC runs a raw handshake that answers the offer with an
// all-zero confirmation MAC and returns the structured denial.
func (f *confFixture) keyexZeroMAC(t *testing.T) confOutcome {
	t.Helper()
	conn, err := net.Dial("tcp", f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rc := &rawConn{t: t, conn: conn, br: bufio.NewReader(conn)}
	rc.send(&wire.Msg{Type: wire.TKeyexInit, ChipID: confChip, Caps: wire.CapChaCha20Poly1305})
	offer, err := rc.recv()
	if err != nil {
		return outcomeOf(Result{}, err)
	}
	rc.send(&wire.Msg{Type: wire.TKeyexConfirm, Session: offer.Session, MAC: make([]byte, wire.MACLen)})
	_, err = rc.recv()
	return outcomeOf(Result{}, err)
}

// establish runs a full key exchange and one authentication inside the
// encrypted channel.
func (f *confFixture) establish(dev core.Device) []confOutcome {
	c := f.client(confChip, dev)
	defer c.Close()
	ss, err := c.Establish(context.Background())
	if err != nil {
		return []confOutcome{outcomeOf(Result{}, err)}
	}
	defer ss.Close()
	est := confOutcome{kind: "key_established", challenges: ss.Result.Challenges}
	return []confOutcome{est, outcomeOf(ss.Authenticate())}
}

// confCase drives one decision path.
type confCase struct {
	name   string
	budget int // per-chip challenge budget at registration (0 = unlimited)
	prep   func(t *testing.T, f *confFixture)
	run    func(t *testing.T, f *confFixture) []confOutcome
	want   []confOutcome
	issued int // challenges burned by the whole script
}

func withKeyex(t *testing.T, f *confFixture) {
	if err := f.srv.SetKeyExchange(keyex.Config{M: 7, T: 8}); err != nil {
		t.Fatal(err)
	}
}

func confCases() []confCase {
	const n = 16 // challenges per authentication
	return []confCase{
		{
			name: "approve",
			run: func(t *testing.T, f *confFixture) []confOutcome {
				return []confOutcome{f.auth(confChip, f.genuine())}
			},
			want:   []confOutcome{approvedN(n)},
			issued: n,
		},
		{
			name: "deny",
			run: func(t *testing.T, f *confFixture) []confOutcome {
				return []confOutcome{f.auth(confChip, oneDevice{})}
			},
			want:   []confOutcome{deniedN(9, n)},
			issued: n,
		},
		{
			name: "deny_then_lockout",
			prep: func(t *testing.T, f *confFixture) { f.srv.SetLockout(2) },
			run: func(t *testing.T, f *confFixture) []confOutcome {
				return []confOutcome{
					f.auth(confChip, oneDevice{}),
					f.auth(confChip, oneDevice{}),
					f.auth(confChip, oneDevice{}), // locked out, terminal, burns nothing
				}
			},
			want:   []confOutcome{deniedN(9, n), deniedN(9, n), refused(CodeLockedOut, false)},
			issued: 2 * n,
		},
		{
			name: "throttle",
			prep: func(t *testing.T, f *confFixture) { f.srv.SetThrottle(time.Hour) },
			run: func(t *testing.T, f *confFixture) []confOutcome {
				return []confOutcome{
					f.auth(confChip, f.genuine()),
					f.auth(confChip, f.genuine()), // inside the throttle window
				}
			},
			want:   []confOutcome{approvedN(n), refused(CodeThrottled, true)},
			issued: n,
		},
		{
			name: "quarantine",
			run: func(t *testing.T, f *confFixture) []confOutcome {
				var out []confOutcome
				// Sustained drift quarantines the chip; the script captures
				// the denials, the first quarantined refusal, and a probe
				// confirming the refusal is stable.
				for i := 0; i < 40; i++ {
					o := f.auth(confChip, oneDevice{})
					out = append(out, o)
					if o.code == CodeQuarantined {
						break
					}
				}
				return append(out, f.auth(confChip, f.genuine()))
			},
			want: []confOutcome{
				deniedN(9, n), deniedN(9, n), deniedN(7, n), deniedN(7, n), deniedN(8, n), deniedN(10, n),
				refused(CodeQuarantined, false), refused(CodeQuarantined, false),
			},
			issued: 6 * n,
		},
		{
			name: "unknown_chip",
			run: func(t *testing.T, f *confFixture) []confOutcome {
				return []confOutcome{f.auth("chip-Z", f.genuine())}
			},
			want:   []confOutcome{refused(CodeUnknownChip, false)},
			issued: 0,
		},
		{
			name:   "budget_exhausted",
			budget: 2 * n,
			run: func(t *testing.T, f *confFixture) []confOutcome {
				return []confOutcome{
					f.auth(confChip, f.genuine()),
					f.auth(confChip, f.genuine()),
					f.auth(confChip, f.genuine()), // nothing left to issue
				}
			},
			want:   []confOutcome{approvedN(n), approvedN(n), refused(CodeSelectionFailed, false)},
			issued: 2 * n,
		},
		{
			name: "migrating",
			prep: func(t *testing.T, f *confFixture) {
				if _, err := f.srv.Registry().SetRangeFence("m1", confChip, confChip+"~"); err != nil {
					t.Fatal(err)
				}
			},
			run: func(t *testing.T, f *confFixture) []confOutcome {
				return []confOutcome{f.auth(confChip, f.genuine())}
			},
			want:   []confOutcome{refused(CodeMigrating, true)},
			issued: 0,
		},
		{
			name: "moved",
			prep: func(t *testing.T, f *confFixture) {
				reg := f.srv.Registry()
				if _, _, _, err := reg.RangeSnapshot(confChip, confChip+"~"); err != nil {
					t.Fatal(err)
				}
				if err := reg.CutoverSource("m1", 1, confChip, confChip+"~", "203.0.113.9:7"); err != nil {
					t.Fatal(err)
				}
			},
			run: func(t *testing.T, f *confFixture) []confOutcome {
				return []confOutcome{f.auth(confChip, f.genuine())}
			},
			want:   []confOutcome{{kind: "error", code: CodeMoved, retryable: true, hasRedirect: true}},
			issued: 0,
		},
		{
			name: "keyex_ok",
			prep: withKeyex,
			run: func(t *testing.T, f *confFixture) []confOutcome {
				return f.establish(f.genuine())
			},
			want:   []confOutcome{{kind: "key_established", challenges: 127}, approvedN(n)},
			issued: 127 + n,
		},
		{
			name: "keyex_mismatch",
			prep: withKeyex,
			run: func(t *testing.T, f *confFixture) []confOutcome {
				return []confOutcome{f.keyexZeroMAC(t)}
			},
			want:   []confOutcome{refused(CodeKeyMismatch, false)},
			issued: 127,
		},
		{
			name: "batched_burn",
			run: func(t *testing.T, f *confFixture) []confOutcome {
				c := f.client(confChip, f.genuine())
				defer c.Close()
				res, err := c.AuthenticateBatch(context.Background(), 5)
				if err != nil {
					return []confOutcome{outcomeOf(Result{}, err)}
				}
				out := make([]confOutcome, len(res))
				for i, r := range res {
					out[i] = outcomeOf(r, nil)
				}
				return out
			},
			// Five sessions, one issuance record: the batch is journaled (and
			// quorum-committed) once.
			want:   []confOutcome{approvedN(n), approvedN(n), approvedN(n), approvedN(n), approvedN(n)},
			issued: 5 * n,
		},
	}
}

// TestConformanceV2 runs every case and compares its outcome script, burn
// count and WAL append stream with the pinned values.
func TestConformanceV2(t *testing.T) {
	golden, err := readGolden(confGolden)
	if err != nil && !*updateGolden {
		t.Fatal(err)
	}
	got := make(map[string][]walRec)
	for _, tc := range confCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := newConfFixture(t, 16, tc.budget)
			if tc.prep != nil {
				tc.prep(t, f)
			}
			out := tc.run(t, f)
			if len(out) != len(tc.want) {
				t.Fatalf("script %+v, want %+v", out, tc.want)
			}
			for i := range out {
				if out[i] != tc.want[i] {
					t.Errorf("step %d: %+v, want %+v", i, out[i], tc.want[i])
				}
			}
			if issued := f.srv.ChipStatus(confChip).Issued; issued != tc.issued {
				t.Errorf("issued %d challenges, want %d", issued, tc.issued)
			}
			recs := f.wal.snapshot()
			got[tc.name] = recs
			if *updateGolden {
				return
			}
			want := golden[tc.name]
			if len(recs) != len(want) {
				t.Fatalf("WAL has %d records (types %v), golden has %d (types %v)",
					len(recs), walTypes(recs), len(want), walTypes(want))
			}
			for i := range recs {
				if recs[i] != want[i] {
					t.Errorf("WAL record %d: type %d %s, golden type %d %s", i,
						recs[i].typ, hex.EncodeToString([]byte(recs[i].payload)),
						want[i].typ, hex.EncodeToString([]byte(want[i].payload)))
				}
			}
		})
	}
	if *updateGolden {
		if err := writeGolden(confGolden, got); err != nil {
			t.Fatal(err)
		}
	}
}

func walTypes(recs []walRec) []int {
	out := make([]int, len(recs))
	for i, r := range recs {
		out[i] = int(r.typ)
	}
	return out
}

// The golden file holds one WAL record per line: case name, record type,
// hex payload ("-" when empty).
func readGolden(path string) (map[string][]walRec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]walRec)
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var name, payload string
		var typ byte
		if _, err := fmt.Sscanf(line, "%s %d %s", &name, &typ, &payload); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, i+1, err)
		}
		if payload == "-" {
			payload = ""
		}
		b, err := hex.DecodeString(payload)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, i+1, err)
		}
		out[name] = append(out[name], walRec{typ: typ, payload: string(b)})
	}
	return out, nil
}

func writeGolden(path string, recs map[string][]walRec) error {
	var buf bytes.Buffer
	for _, tc := range confCases() {
		for _, r := range recs[tc.name] {
			payload := hex.EncodeToString([]byte(r.payload))
			if payload == "" {
				payload = "-"
			}
			fmt.Fprintf(&buf, "%s %d %s\n", tc.name, r.typ, payload)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
