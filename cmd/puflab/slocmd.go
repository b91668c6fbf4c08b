// slo: one-shot evaluation of a running serve instance's SLO plane —
// fetch /slo and /alerts from the admin listener, render the objective
// table and any alerts, and exit nonzero if anything is firing (so shell
// scripts and CI health gates can use it directly).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"xorpuf/internal/telemetry/slo"
)

// alertsDoc mirrors the /alerts payload.
type alertsDoc struct {
	Alerts []slo.Status `json:"alerts"`
	Events []slo.Event  `json:"events"`
}

func runSLO(args []string) {
	fs := flag.NewFlagSet("slo", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7411", "admin HTTP address of a serve instance (its -admin flag)")
	asJSON := fs.Bool("json", false, "dump the raw /slo and /alerts JSON instead of tables")
	events := fs.Int("events", 8, "recent alert transitions to show")
	timeout := fs.Duration("timeout", 5*time.Second, "fetch timeout")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	client := &http.Client{Timeout: *timeout}
	sloBody := adminGet(client, *addr, "/slo")
	alertBody := adminGet(client, *addr, fmt.Sprintf("/alerts?events=%d", *events))

	if *asJSON {
		fmt.Printf("{\"slo\":%s,\"alerts\":%s}\n", sloBody, alertBody)
	}

	var statuses []slo.ObjectiveStatus
	if err := json.Unmarshal(sloBody, &statuses); err != nil {
		fmt.Fprintf(os.Stderr, "puflab slo: decoding /slo: %v\n", err)
		os.Exit(1)
	}
	var alerts alertsDoc
	if err := json.Unmarshal(alertBody, &alerts); err != nil {
		fmt.Fprintf(os.Stderr, "puflab slo: decoding /alerts: %v\n", err)
		os.Exit(1)
	}

	firing := 0
	for _, a := range alerts.Alerts {
		if a.State == "firing" {
			firing++
		}
	}
	if !*asJSON {
		printSLO(statuses, alerts)
	}
	if firing > 0 {
		os.Exit(1)
	}
}

// printSLO renders the objective table, the non-inactive alerts, and the
// recent transition log.
func printSLO(statuses []slo.ObjectiveStatus, alerts alertsDoc) {
	fmt.Printf("%-22s %-8s %-9s %10s %10s %10s %8s\n",
		"objective", "kind", "state", "long-burn", "short-burn", "value", "budget")
	for _, s := range statuses {
		value := "-"
		switch {
		case !s.HasData:
			value = "no data"
		case s.Kind == slo.KindRatio:
			value = fmt.Sprintf("good %.3f", s.GoodFraction)
		case s.Kind == slo.KindLatency:
			value = sig3(s.QuantileSeconds) + "s"
		case s.Kind == slo.KindGauge:
			value = sig3(s.GaugeValue)
		}
		budget := "-"
		if s.Kind == slo.KindRatio && s.HasData {
			budget = fmt.Sprintf("%.0f%%", 100*s.BudgetRemaining)
		}
		fmt.Printf("%-22s %-8s %-9s %10.2f %10.2f %10s %8s\n",
			s.Name, s.Kind, s.State, s.LongBurn, s.ShortBurn, value, budget)
	}

	active := 0
	for _, a := range alerts.Alerts {
		if a.State == "inactive" {
			continue
		}
		if active == 0 {
			fmt.Println("\nalerts")
		}
		active++
		fmt.Printf("  %-9s %-40s %s\n", a.State, a.Name, a.Reason)
	}
	if active == 0 {
		fmt.Println("\nno active alerts")
	}
	if len(alerts.Events) > 0 {
		fmt.Println("\nrecent transitions")
		for _, ev := range alerts.Events {
			fmt.Printf("  %s  %-40s %s → %s  %s\n",
				ev.At.Format("15:04:05"), ev.Name, ev.FromState, ev.ToState, ev.Reason)
		}
	}
}
