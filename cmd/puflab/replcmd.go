// repl/gateway: operate a replicated deployment from the shell.
//
//	puflab repl status  -addr <admin>   show a node's replication state
//	puflab repl promote -addr <admin>   promote a follower to serving
//	puflab gateway -listen <addr> -shard name=addr1,addr2 [...]
//	                                    run the session gateway in front of
//	                                    the shard owners
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"xorpuf/internal/netauth"
	"xorpuf/internal/node"
	"xorpuf/internal/registry/repl"
	"xorpuf/internal/telemetry"
	"xorpuf/internal/telemetry/dtrace"
)

func runRepl(args []string) {
	if len(args) < 1 || (args[0] != "status" && args[0] != "promote") {
		fmt.Fprintln(os.Stderr, `puflab repl — inspect and drive registry replication

usage: puflab repl status  [-addr HOST:PORT] [-json]
       puflab repl promote [-addr HOST:PORT]

"status" prints the node's role and replication lag; "promote" tells a
follower to stop replicating and start serving authentication (failover).
-addr is the serve instance's admin plane (its -admin flag).`)
		os.Exit(2)
	}
	sub := args[0]
	fs := flag.NewFlagSet("repl "+sub, flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7411", "admin HTTP address of a serve instance (its -admin flag)")
	asJSON := fs.Bool("json", false, "dump the raw JSON instead of a summary")
	timeout := fs.Duration("timeout", 5*time.Second, "request timeout")
	if err := fs.Parse(args[1:]); err != nil {
		os.Exit(2)
	}
	client := &http.Client{Timeout: *timeout}

	if sub == "promote" {
		body, ok := adminPost(client, *addr, "/repl/promote", nil)
		var doc struct {
			Promoted bool   `json:"promoted"`
			Seq      uint64 `json:"seq"`
		}
		if !ok || json.Unmarshal(body, &doc) != nil || !doc.Promoted {
			fmt.Fprintf(os.Stderr, "puflab repl promote: %s refused (%s) — is it a follower with -admin?\n",
				*addr, body)
			os.Exit(1)
		}
		fmt.Printf("promoted: %s serving authentication at seq %d\n", *addr, doc.Seq)
		return
	}

	body := adminGet(client, *addr, "/repl")
	if *asJSON {
		fmt.Printf("%s\n", body)
		return
	}
	var doc node.ReplDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		fmt.Fprintf(os.Stderr, "puflab repl status: decoding /repl: %v\n", err)
		os.Exit(1)
	}
	switch {
	case doc.Primary != nil:
		p := doc.Primary
		fmt.Printf("role: primary  seq=%d  quorum=%d  strict=%v  followers=%d\n",
			p.Seq, p.Quorum, p.Strict, len(p.Followers))
		for _, f := range p.Followers {
			fmt.Printf("  follower %-21s acked=%d lag=%d records\n", f.Addr, f.Acked, f.Lag)
		}
	case doc.Follower != nil:
		f := doc.Follower
		fmt.Printf("role: follower  state=%s  primary=%s\n", f.State, f.Primary)
		fmt.Printf("  applied=%d  primary-seq=%d  lag=%d records / %d bytes  disconnects=%d\n",
			f.AppliedSeq, f.PrimarySeq, f.LagRecords, f.LagBytes, f.Disconnects)
		if f.LastError != "" {
			fmt.Printf("  last error: %s\n", f.LastError)
		}
		if f.State == repl.StateDegraded {
			os.Exit(1) // scriptable: degraded replication is a failed check
		}
	default:
		fmt.Println("role: standalone (no -primary / -follower)")
	}
}

func runGateway(args []string) {
	fs := flag.NewFlagSet("gateway", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7400", "device-facing listen address")
	admin := fs.String("admin", "", "admin HTTP address serving /metrics and /trace/spans (empty = off)")
	virtual := fs.Int("virtual-nodes", 64, "ring points per shard")
	dialTimeout := fs.Duration("dial-timeout", 2*time.Second, "backend dial timeout")
	cooldown := fs.Duration("cooldown", 3*time.Second, "down-mark cooldown before a failed backend is re-probed")
	var shards []netauth.GatewayShard
	fs.Func("shard", "shard spec name=addr1,addr2 (repeatable; replicas in priority order, primary first)", func(s string) error {
		name, addrs, ok := strings.Cut(s, "=")
		if !ok || name == "" || addrs == "" {
			return fmt.Errorf("want name=addr1,addr2, got %q", s)
		}
		shards = append(shards, netauth.GatewayShard{Name: name, Addrs: strings.Split(addrs, ",")})
		return nil
	})
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if len(shards) == 0 {
		fmt.Fprintln(os.Stderr, "puflab gateway: at least one -shard name=addr1,addr2 is required")
		os.Exit(2)
	}

	g, err := netauth.NewGateway(shards, netauth.GatewayConfig{
		VirtualNodes: *virtual,
		DialTimeout:  *dialTimeout,
		Cooldown:     *cooldown,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "puflab gateway: %v\n", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "puflab gateway: %v\n", err)
		os.Exit(1)
	}
	for _, s := range shards {
		fmt.Printf("shard %s → %s\n", s.Name, strings.Join(s.Addrs, ", "))
	}
	fmt.Printf("session gateway on %s (%d shards, %d ring points each)\n", ln.Addr(), len(shards), *virtual)

	// Observability plane: the gateway's routing counters (reroutes,
	// redirects, down-marks) in /metrics and its gateway.session /
	// gateway.hop spans in /trace/spans, so `puflab trace collect` can fold
	// the gateway hop into the cross-process tree.
	dtrace.SetService("gateway@" + *listen)
	var adminLn net.Listener
	if *admin != "" {
		adminLn, err = net.Listen("tcp", *admin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "puflab gateway: admin listener: %v\n", err)
			os.Exit(1)
		}
		mux := telemetry.AdminMux(telemetry.Default, nil, telemetry.Endpoint{
			Path: "/trace/spans", Handler: dtrace.Handler(dtrace.Default),
		})
		go func() {
			if err := http.Serve(adminLn, mux); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintf(os.Stderr, "puflab gateway: admin server: %v\n", err)
			}
		}()
		fmt.Printf("admin plane on http://%s (/metrics /trace/spans)\n", adminLn.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- g.Serve(ln) }()
	select {
	case s := <-sig:
		fmt.Printf("\n%v: draining gateway sessions…\n", s)
		g.Close()
		<-done
	case err := <-done:
		if err != nil {
			fmt.Fprintf(os.Stderr, "puflab gateway: %v\n", err)
			os.Exit(1)
		}
	}
	if adminLn != nil {
		_ = adminLn.Close()
	}
}
