// The admin-plane client every operational command shares: one GET and
// one POST helper against a serve instance's -admin listener.
package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
)

// adminGet fetches one admin-plane path and returns the body, exiting the
// process on transport or HTTP errors (these commands are terminal tools).
func adminGet(client *http.Client, addr, path string) []byte {
	url := "http://" + addr + path
	resp, err := client.Get(url)
	if err != nil {
		fmt.Fprintf(os.Stderr, "puflab: fetching %s: %v\n", url, err)
		os.Exit(1)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fmt.Fprintf(os.Stderr, "puflab: reading %s: %v\n", url, err)
		os.Exit(1)
	}
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "puflab: %s returned %s\n%s", url, resp.Status, body)
		os.Exit(1)
	}
	return body
}

// adminPost posts to one admin-plane path and returns the body, exiting the
// process on transport errors; HTTP errors are surfaced with the body so
// the operator sees the server's refusal reason.
func adminPost(client *http.Client, addr, path string, form url.Values) ([]byte, bool) {
	u := "http://" + addr + path
	resp, err := client.PostForm(u, form)
	if err != nil {
		fmt.Fprintf(os.Stderr, "puflab: posting %s: %v\n", u, err)
		os.Exit(1)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fmt.Fprintf(os.Stderr, "puflab: reading %s: %v\n", u, err)
		os.Exit(1)
	}
	return bytes.TrimSpace(body), resp.StatusCode == http.StatusOK
}
