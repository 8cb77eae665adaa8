package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"

	"edgedrift/internal/router"
)

// runRoute is the `driftbench route` subcommand: the consistent-hash
// router process in front of N shards. Clients speak the same wire
// protocol to it as to a shard; the admin HTTP endpoint drives live
// stream migration and exposes the routing table and metrics.
func runRoute(args []string) int {
	fs := flag.NewFlagSet("route", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7500", "TCP listen address for the data plane (port 0 picks a free port)")
	admin := fs.String("admin", "", "optional HTTP listen address for the control plane (/migrate, /streams, /metrics)")
	shards := fs.String("shards", "", "comma-separated shard addresses (required)")
	vnodes := fs.Int("vnodes", 64, "ring points per shard")
	pool := fs.Int("pool", 4, "idle connections kept per shard")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the serving process to this file, flushed on SIGINT shutdown")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var shardAddrs []string
	for _, a := range strings.Split(*shards, ",") {
		if a = strings.TrimSpace(a); a != "" {
			shardAddrs = append(shardAddrs, a)
		}
	}
	if len(shardAddrs) == 0 {
		fmt.Fprintln(os.Stderr, "route: -shards needs at least one address")
		return 2
	}

	r, err := router.New(router.Config{Shards: shardAddrs, Vnodes: *vnodes, PoolSize: *pool})
	if err != nil {
		fmt.Fprintf(os.Stderr, "route: %v\n", err)
		return 1
	}
	stopProfile, err := startCPUProfile(*cpuProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "route: cpuprofile: %v\n", err)
		return 1
	}
	defer stopProfile()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "route: %v\n", err)
		return 1
	}
	fmt.Printf("route: listening on %s (%d shards)\n", ln.Addr(), len(shardAddrs))

	if *admin != "" {
		go func() {
			if err := http.ListenAndServe(*admin, r.AdminHandler()); err != nil {
				fmt.Fprintf(os.Stderr, "route: admin: %v\n", err)
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	go func() {
		<-stop
		r.Close()
	}()
	if err := r.Serve(ln); err != net.ErrClosed {
		fmt.Fprintf(os.Stderr, "route: %v\n", err)
		return 1
	}
	return 0
}
