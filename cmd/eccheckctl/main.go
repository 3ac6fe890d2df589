// Command eccheckctl is the operator CLI for a running eccheckd: thin
// subcommands over the daemon's /v1 HTTP API.
//
// Usage:
//
//	eccheckctl [-addr http://127.0.0.1:7070] <command> [args]
//
//	register <id> [-tenant t] [-nodes 4] [-gpus 2] [-k 2] [-m 2] [-scale 32]
//	save     <id> [-steps 1]
//	load     <id>
//	fail     <id> -node N [-no-replace]
//	status   <id>
//	health   <id>
//	watch    [-job id] [-count N]
//	readyz
//	list
//	delete   <id>
//	metrics
//
// Every command prints the daemon's JSON response; non-2xx responses exit
// 1 with the daemon's typed error on stderr. watch streams the daemon's
// /v1/events feed line by line until interrupted (or N events with
// -count), prefixing each protection-level transition with LEVEL so a
// chaos drill reads at a glance.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"eccheck"
	"eccheck/internal/daemon"
)

func main() {
	os.Exit(run())
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: eccheckctl [-addr URL] register|save|load|fail|status|health|watch|readyz|list|delete|metrics ...")
}

func run() int {
	addr := flag.String("addr", "http://127.0.0.1:7070", "eccheckd base URL")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		return 2
	}
	cli := daemon.NewClient(*addr)
	ctx := context.Background()

	cmd, args := args[0], args[1:]
	out, err := dispatch(ctx, cli, cmd, args)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if err == errUsage {
			usage()
		}
		return 1
	}
	switch v := out.(type) {
	case string:
		fmt.Print(v)
	default:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	}
	return 0
}

// errUsage marks a malformed command line.
var errUsage = fmt.Errorf("eccheckctl: bad arguments")

// popID splits the job id off a subcommand's arguments.
func popID(args []string) (string, []string, error) {
	if len(args) == 0 || len(args[0]) == 0 || args[0][0] == '-' {
		return "", nil, errUsage
	}
	return args[0], args[1:], nil
}

// dispatch runs one subcommand and returns the value to print.
func dispatch(ctx context.Context, cli *daemon.Client, cmd string, args []string) (any, error) {
	switch cmd {
	case "register":
		id, rest, err := popID(args)
		if err != nil {
			return nil, err
		}
		fs := flag.NewFlagSet("register", flag.ContinueOnError)
		spec := daemon.JobSpec{ID: id}
		fs.StringVar(&spec.Tenant, "tenant", "", "quota tenant")
		fs.IntVar(&spec.Nodes, "nodes", 0, "machine count (k+m, or a multiple of it: groups of k+m nodes)")
		fs.IntVar(&spec.GPUsPerNode, "gpus", 0, "GPUs per machine")
		fs.IntVar(&spec.K, "k", 0, "data nodes")
		fs.IntVar(&spec.M, "m", 0, "parity nodes")
		fs.IntVar(&spec.Scale, "scale", 0, "model down-scale factor")
		fs.IntVar(&spec.BufferBytes, "buffer-bytes", 0, "streaming window size")
		fs.BoolVar(&spec.DisableRemote, "no-remote", false, "disable the remote persistence tier")
		if err := fs.Parse(rest); err != nil {
			return nil, err
		}
		return cli.Register(ctx, spec)
	case "save":
		id, rest, err := popID(args)
		if err != nil {
			return nil, err
		}
		fs := flag.NewFlagSet("save", flag.ContinueOnError)
		steps := fs.Int("steps", 1, "training steps to advance before the checkpoint")
		if err := fs.Parse(rest); err != nil {
			return nil, err
		}
		return cli.Save(ctx, id, daemon.SaveRequest{Steps: *steps})
	case "load":
		id, _, err := popID(args)
		if err != nil {
			return nil, err
		}
		return cli.Load(ctx, id)
	case "fail":
		id, rest, err := popID(args)
		if err != nil {
			return nil, err
		}
		fs := flag.NewFlagSet("fail", flag.ContinueOnError)
		node := fs.Int("node", -1, "machine to kill")
		noReplace := fs.Bool("no-replace", false, "leave the slot dead instead of refilling it")
		if err := fs.Parse(rest); err != nil {
			return nil, err
		}
		if *node < 0 {
			return nil, errUsage
		}
		replace := !*noReplace
		return cli.Fail(ctx, id, daemon.FailRequest{Node: *node, Replace: &replace})
	case "status":
		id, _, err := popID(args)
		if err != nil {
			return nil, err
		}
		return cli.Status(ctx, id)
	case "health":
		id, _, err := popID(args)
		if err != nil {
			return nil, err
		}
		return cli.Health(ctx, id)
	case "readyz":
		return cli.Readyz(ctx)
	case "watch":
		fs := flag.NewFlagSet("watch", flag.ContinueOnError)
		job := fs.String("job", "", "stream only this job's events")
		count := fs.Int("count", 0, "stop after N events (0 streams until interrupted)")
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		return "", watch(ctx, cli, *job, *count)
	case "list":
		return cli.List(ctx)
	case "delete":
		id, _, err := popID(args)
		if err != nil {
			return nil, err
		}
		if err := cli.Delete(ctx, id); err != nil {
			return nil, err
		}
		return map[string]string{"deleted": id}, nil
	case "metrics":
		return cli.MetricsText(ctx)
	default:
		return nil, errUsage
	}
}

// watch tails the daemon's /v1/events stream, one JSON event per line.
// Protection-level transitions get a LEVEL prefix ("LEVEL degraded <-
// ok") so the moments that matter stand out in a chaos drill; round and
// stuck events print bare. Ctrl-C detaches cleanly.
func watch(ctx context.Context, cli *daemon.Client, job string, count int) error {
	ctx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	seen := 0
	return cli.Watch(ctx, job, func(ev eccheck.HealthEvent) bool {
		raw, err := json.Marshal(ev)
		if err != nil {
			return true
		}
		if ev.Kind == "health" {
			fmt.Printf("LEVEL %s <- %s  %s\n", ev.Level, ev.PrevLevel, raw)
		} else {
			fmt.Printf("%s\n", raw)
		}
		seen++
		return count <= 0 || seen < count
	})
}
