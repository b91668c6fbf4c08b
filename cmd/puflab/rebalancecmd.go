// rebalance: drive and observe live chip-range migrations between serve
// instances, and audit the never-reuse invariant across the WAL journals
// a migration leaves behind.
//
// The data plane (snapshot + delta stream + cutover) runs between the two
// serve processes over the migration listener (`serve -migrate-listen`);
// this command only talks to the source's admin plane, which owns the
// migration lifecycle:
//
//	puflab rebalance start  -addr <src-admin> -id m1 -lo chip-3 -hi chip-6 -target <dst-migrate>
//	puflab rebalance status -addr <src-admin>
//	puflab rebalance abort  -addr <src-admin>
//	puflab rebalance audit  <wal-file> [<wal-file> ...]
//
// audit is the offline closing argument for the paper's Fig 7 never-reuse
// rule across a topology change: it replays every journal of the fleet —
// source and target, including journals from killed processes — and fails
// if any (chip, challenge-word) pair was freshly issued more than once
// anywhere in the combined history.  Migrated-burn records (the target's
// re-journaled copies of history it inherited) are verified to be copies,
// never counted as fresh issuance.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"time"

	"xorpuf/internal/node"
	"xorpuf/internal/registry"
	"xorpuf/internal/registry/rebalance"
)

func runRebalance(args []string) {
	if len(args) < 1 {
		rebalanceUsage()
		os.Exit(2)
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "start":
		runRebalanceStart(rest)
	case "status":
		runRebalanceStatus(rest)
	case "abort":
		runRebalanceAbort(rest)
	case "audit":
		runRebalanceAudit(rest)
	default:
		fmt.Fprintf(os.Stderr, "puflab rebalance: unknown subcommand %q\n\n", sub)
		rebalanceUsage()
		os.Exit(2)
	}
}

func rebalanceUsage() {
	fmt.Fprintln(os.Stderr, `usage: puflab rebalance <start|status|abort|audit> [flags]

  start   begin migrating a chip range out of a serve instance
          (-addr, -id, -lo, -hi, -target, -redirect, -wait)
  status  report the migration phase and durable ownership state (-addr, -json)
  abort   abort the in-flight migration, pre-cutover only (-addr)
  audit   offline never-reuse audit over WAL journals: fails if any
          (chip, challenge) was freshly issued twice across all files`)
}

func runRebalanceStart(args []string) {
	fs := flag.NewFlagSet("rebalance start", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7411", "admin HTTP address of the SOURCE serve instance")
	id := fs.String("id", "", "migration ID, stable across retries (required)")
	lo := fs.String("lo", "", "inclusive low chip-ID bound of the range (required)")
	hi := fs.String("hi", "", "exclusive high chip-ID bound (empty = to end of keyspace)")
	target := fs.String("target", "", "target's migration listener address, its -migrate-listen (required)")
	redirect := fs.String("redirect", "", "address departed chips are redirected to (default: -target)")
	wait := fs.Bool("wait", false, "poll until the migration reaches a terminal phase and exit accordingly")
	interval := fs.Duration("interval", 200*time.Millisecond, "poll interval with -wait")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request timeout")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	client := &http.Client{Timeout: *timeout}
	form := url.Values{
		"id":       {*id},
		"lo":       {*lo},
		"hi":       {*hi},
		"target":   {*target},
		"redirect": {*redirect},
	}
	body, ok := adminPost(client, *addr, "/rebalance/start", form)
	if !ok {
		fmt.Fprintf(os.Stderr, "puflab rebalance: start refused: %s\n", body)
		os.Exit(1)
	}
	fmt.Printf("migration %s started: [%s, %s) → %s\n", *id, *lo, *hi, *target)
	if !*wait {
		return
	}
	for {
		time.Sleep(*interval)
		var doc node.RebalanceDoc
		if err := json.Unmarshal(adminGet(client, *addr, "/rebalance"), &doc); err != nil {
			fmt.Fprintf(os.Stderr, "puflab rebalance: bad /rebalance payload: %v\n", err)
			os.Exit(1)
		}
		st := doc.Active
		if st == nil || st.MigrationID != *id {
			fmt.Fprintf(os.Stderr, "puflab rebalance: migration %s no longer reported\n", *id)
			os.Exit(1)
		}
		switch st.Phase {
		case rebalance.PhaseDone:
			fmt.Printf("migration %s done: %d chips, %d delta records, %d restarts, fence %dms, epoch %d\n",
				st.MigrationID, st.Chips, st.DeltaRecords, st.Restarts, st.FenceMillis, st.Epoch)
			return
		case rebalance.PhaseAborted, rebalance.PhaseFailed:
			fmt.Fprintf(os.Stderr, "puflab rebalance: migration %s %s: %s\n", st.MigrationID, st.Phase, st.Error)
			os.Exit(1)
		}
	}
}

func runRebalanceStatus(args []string) {
	fs := flag.NewFlagSet("rebalance status", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7411", "admin HTTP address of a serve instance")
	asJSON := fs.Bool("json", false, "dump the raw /rebalance JSON")
	timeout := fs.Duration("timeout", 5*time.Second, "fetch timeout")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	client := &http.Client{Timeout: *timeout}
	body := adminGet(client, *addr, "/rebalance")
	if *asJSON {
		os.Stdout.Write(body)
		return
	}
	var doc node.RebalanceDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		fmt.Fprintf(os.Stderr, "puflab rebalance: bad /rebalance payload: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("ownership epoch %d\n", doc.Epoch)
	if st := doc.Active; st != nil {
		fmt.Printf("migration %-12s [%s, %s) → %s\n", st.MigrationID, st.Lo, st.Hi, st.Target)
		fmt.Printf("  phase %s, %d chips, %d delta records, %d restarts",
			st.Phase, st.Chips, st.DeltaRecords, st.Restarts)
		if st.FenceMillis > 0 {
			fmt.Printf(", fence %dms", st.FenceMillis)
		}
		fmt.Println()
		if st.Error != "" {
			fmt.Printf("  error: %s\n", st.Error)
		}
	} else {
		fmt.Println("no outbound migration")
	}
	for _, f := range doc.Fences {
		fmt.Printf("fence    %-12s [%s, %s) — issuance paused\n", f.ID, f.Lo, f.Hi)
	}
	for _, d := range doc.Departed {
		fmt.Printf("departed [%s, %s) epoch %d → %s\n", d.Lo, d.Hi, d.Epoch, d.Redirect)
	}
}

func runRebalanceAbort(args []string) {
	fs := flag.NewFlagSet("rebalance abort", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7411", "admin HTTP address of the SOURCE serve instance")
	timeout := fs.Duration("timeout", 5*time.Second, "request timeout")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	client := &http.Client{Timeout: *timeout}
	body, ok := adminPost(client, *addr, "/rebalance/abort", url.Values{})
	if !ok {
		fmt.Fprintf(os.Stderr, "puflab rebalance: abort refused: %s\n", body)
		os.Exit(1)
	}
	fmt.Println("abort requested; status reports the terminal phase")
}

// runRebalanceAudit replays every given WAL and checks the global
// never-reuse invariant.  Fresh issuance records (recIssued, recKeyIssued)
// claim their (chip, word) pairs exactly once across ALL journals; the
// target's migrated-burn copies must land on pairs some journal already
// claimed — a migrated burn with no fresh original means history was lost.
func runRebalanceAudit(args []string) {
	fs := flag.NewFlagSet("rebalance audit", flag.ExitOnError)
	quiet := fs.Bool("q", false, "suppress per-file progress, print only the verdict")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	files := fs.Args()
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "puflab rebalance audit: no WAL files given")
		os.Exit(2)
	}

	type claim struct{ file string }
	fresh := map[string]map[uint64]claim{} // chip → word → first fresh issuer
	copies := map[string][]uint64{}        // chip → migrated-burn words, resolved after all files
	var records, burns, migrated int
	duplicates := 0
	for _, path := range files {
		before := records
		err := registry.IterateWAL(path, func(seq uint64, typ byte, payload []byte) error {
			records++
			id, words, isFresh, ok := registry.RecordIssuedWords(typ, payload)
			if !ok {
				return nil
			}
			if !isFresh {
				migrated += len(words)
				copies[id] = append(copies[id], words...)
				return nil
			}
			burns += len(words)
			m := fresh[id]
			if m == nil {
				m = map[uint64]claim{}
				fresh[id] = m
			}
			for _, w := range words {
				if prev, dup := m[w]; dup {
					duplicates++
					fmt.Fprintf(os.Stderr, "REUSE: chip %s word %d issued fresh in %s and again in %s\n",
						id, w, prev.file, path)
					continue
				}
				m[w] = claim{file: path}
			}
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "puflab rebalance audit: %s: %v\n", path, err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Printf("%s: %d records\n", path, records-before)
		}
	}
	// Every migrated-burn copy must trace back to a fresh original somewhere.
	orphans := 0
	for id, words := range copies {
		for _, w := range words {
			if _, ok := fresh[id][w]; !ok {
				orphans++
				fmt.Fprintf(os.Stderr, "LOST HISTORY: chip %s word %d migrated but never freshly issued in any journal\n", id, w)
			}
		}
	}
	fmt.Printf("audit: %d records, %d fresh burns, %d migrated copies, %d chips\n",
		records, burns, migrated, len(fresh))
	if duplicates > 0 || orphans > 0 {
		fmt.Fprintf(os.Stderr, "audit FAILED: %d reused challenges, %d orphaned migrated burns\n", duplicates, orphans)
		os.Exit(1)
	}
	fmt.Println("audit OK: no challenge issued twice across the fleet's combined history")
}
