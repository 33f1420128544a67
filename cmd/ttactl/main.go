// Command ttactl is the client for ttaserved. Subcommands:
//
//	submit  build a SubmitRequest from campaign flags (or -spec file) and
//	        POST it; -wait blocks until the job finishes
//	status  print one job's status: a human summary with the cache-hit
//	        ratio, recovered-unit count, and saved wall time (-json for
//	        the raw JSON)
//	wait    block until a job reaches a terminal state
//	report  print a finished job's canonical report (-json for JSON)
//	watch   stream a job's progress events as JSONL
//	list    list all jobs
//	units   print a job's per-unit accounting JSON
//	top     rank a job's units by cost: -by wall|cpu|rss|nodes|conflicts
//	metrics print the daemon's Prometheus exposition (-validate checks it
//	        parses as Prometheus text format 0.0.4)
//	trace   fetch a job's merged multi-process Chrome trace (-o file)
//
// The daemon address comes from -addr, or -addr-file (as written by
// ttaserved -addr-file), or the TTASERVED_ADDR environment variable.
//
// Examples:
//
//	ttactl -addr 127.0.0.1:8414 submit -n 3 -degrees 1,2,3 -wait
//	ttactl submit -kind mcfi -sim-n 4 -samples 3000 -batch 500 -seed 7
//	ttactl report 1a2b3c4d5e6f-0
//	ttactl top -by nodes 1a2b3c4d5e6f-0
//	ttactl trace -o trace.json 1a2b3c4d5e6f-0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"ttastartup/internal/campaign"
	"ttastartup/internal/obs"
	"ttastartup/internal/serve"
	"ttastartup/internal/sim/mcfi"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ttactl:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", "", "daemon address host:port (default: -addr-file, then $TTASERVED_ADDR)")
		addrFile = flag.String("addr-file", "", "read the daemon address from this file")
	)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ttactl [-addr host:port | -addr-file path] <submit|status|wait|report|watch|list|units|top|metrics|trace> ...")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		return fmt.Errorf("missing subcommand")
	}
	base, err := baseURL(*addr, *addrFile)
	if err != nil {
		return err
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "submit":
		return cmdSubmit(base, args)
	case "status":
		return cmdStatus(base, args)
	case "wait":
		return cmdWait(base, args)
	case "report":
		return cmdReport(base, args)
	case "watch":
		return cmdWatch(base, args)
	case "list":
		return get(base+"/v1/jobs", os.Stdout)
	case "units":
		id, err := oneID(args)
		if err != nil {
			return err
		}
		return get(base+"/v1/jobs/"+id+"/units", os.Stdout)
	case "top":
		return cmdTop(base, args)
	case "metrics":
		return cmdMetrics(base, args)
	case "trace":
		return cmdTrace(base, args)
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func baseURL(addr, addrFile string) (string, error) {
	if addr == "" && addrFile != "" {
		data, err := os.ReadFile(addrFile)
		if err != nil {
			return "", err
		}
		addr = strings.TrimSpace(string(data))
	}
	if addr == "" {
		addr = os.Getenv("TTASERVED_ADDR")
	}
	if addr == "" {
		return "", fmt.Errorf("no daemon address: use -addr, -addr-file, or $TTASERVED_ADDR")
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimSuffix(addr, "/"), nil
}

func cmdSubmit(base string, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	specFlags := campaign.BindSpecFlags(fs) // the verify spec axes
	var (
		specFile = fs.String("spec", "", "submit this SubmitRequest JSON file instead of building one from flags")
		kind     = fs.String("kind", "verify", "job kind: verify, mcfi")
		wait     = fs.Bool("wait", false, "block until the job reaches a terminal state")

		// run config (part of the verdict-cache key)
		timeout     = fs.Duration("timeout", 0, "per-job engine budget (0: none)")
		fallbackBMC = fs.Bool("fallback-bmc", false, "retry deadline-exceeded jobs with the bounded engine")
		bmcDepth    = fs.Int("depth", 0, "bmc unrolling depth (0: 2·w_sup)")
		noOpt       = fs.Bool("no-opt", false, "disable the static model-optimization pipeline")

		// mcfi spec
		simN    = fs.Int("sim-n", 4, "mcfi: cluster size")
		samples = fs.Int("samples", 3000, "mcfi: scenarios to simulate")
		seed    = fs.Int64("seed", 1, "mcfi: campaign seed")
		batch   = fs.Int("batch", 500, "mcfi: scenarios per batch")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var req serve.SubmitRequest
	if *specFile != "" {
		data, err := os.ReadFile(*specFile)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &req); err != nil {
			return fmt.Errorf("%s: %w", *specFile, err)
		}
	} else {
		req.Config = serve.RunConfig{
			TimeoutMS:   timeout.Milliseconds(),
			FallbackBMC: *fallbackBMC,
			BMCDepth:    *bmcDepth,
			NoOpt:       *noOpt,
		}
		switch *kind {
		case serve.KindVerify:
			spec, err := specFlags.Spec()
			if err != nil {
				return err
			}
			req.Kind = serve.KindVerify
			req.Verify = &spec
		case serve.KindMCFI:
			req.Kind = serve.KindMCFI
			req.MCFI = &mcfi.Spec{N: *simN, Samples: *samples, Seed: *seed, Batch: *batch}
		default:
			return fmt.Errorf("-kind: want verify or mcfi, got %q", *kind)
		}
	}

	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	var st serve.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if !*wait {
		os.Stdout.Write(data)
		return nil
	}
	return waitJob(base, st.ID)
}

func cmdStatus(base string, args []string) error {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "print the raw status JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	id, err := oneID(fs.Args())
	if err != nil {
		return err
	}
	if *asJSON {
		return get(base+"/v1/jobs/"+id, os.Stdout)
	}
	var buf bytes.Buffer
	if err := get(base+"/v1/jobs/"+id, &buf); err != nil {
		return err
	}
	var st serve.JobStatus
	if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
		return err
	}
	fmt.Printf("job      %s (%s)\n", st.ID, st.Kind)
	fmt.Printf("state    %s", st.State)
	if st.Summary != "" {
		fmt.Printf("  %s", st.Summary)
	}
	fmt.Println()
	fmt.Printf("units    %d/%d done (%d executed, %d cached, %d failed)\n",
		st.Done, st.Total, st.Executed, st.Cached, st.Failed)
	hitRatio := 0.0
	if st.Done > 0 {
		hitRatio = float64(st.Cached) / float64(st.Done)
	}
	fmt.Printf("cache    %.0f%% hit ratio, %s of execution saved\n", 100*hitRatio, msString(st.SavedMS))
	fmt.Printf("exec     %s of worker wall time\n", msString(st.ExecMS))
	fmt.Printf("recover  %d units re-run after a crash\n", st.Recovered)
	if st.Error != "" {
		fmt.Printf("error    %s\n", st.Error)
	}
	return nil
}

// msString renders milliseconds human-readably without sub-ms noise.
func msString(ms int64) string {
	return (time.Duration(ms) * time.Millisecond).String()
}

// cmdTop ranks a job's units by resource cost, like a per-campaign
// process monitor: which model checks are eating the fleet.
func cmdTop(base string, args []string) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	by := fs.String("by", "wall", "rank by: wall, cpu, rss, nodes, conflicts")
	limit := fs.Int("n", 20, "show the top N units (0: all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	id, err := oneID(fs.Args())
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := get(base+"/v1/jobs/"+id+"/units", &buf); err != nil {
		return err
	}
	var ur serve.UnitsResponse
	if err := json.Unmarshal(buf.Bytes(), &ur); err != nil {
		return err
	}

	type row struct {
		unit                            string
		flags                           string
		wall, cpu, rss, nodes, conflict int64
	}
	rows := make([]row, 0, len(ur.Units))
	for _, u := range ur.Units {
		if u.Pending || u.Stats == nil {
			continue
		}
		flags := ""
		if u.Cached {
			flags += "C"
		}
		if u.Recovered {
			flags += "R"
		}
		if u.Err != "" {
			flags += "!"
		}
		rows = append(rows, row{
			unit: u.Unit, flags: flags,
			wall:     u.Stats.WallMS,
			cpu:      u.Stats.CPUMS,
			rss:      u.Stats.MaxRSSKB,
			nodes:    u.Stats.Metrics.Gauges["bdd.nodes.peak"],
			conflict: u.Stats.Metrics.Counters["sat.conflicts"],
		})
	}
	key := func(r row) int64 { return r.wall }
	switch *by {
	case "wall":
	case "cpu":
		key = func(r row) int64 { return r.cpu }
	case "rss":
		key = func(r row) int64 { return r.rss }
	case "nodes":
		key = func(r row) int64 { return r.nodes }
	case "conflicts":
		key = func(r row) int64 { return r.conflict }
	default:
		return fmt.Errorf("-by: want wall, cpu, rss, nodes or conflicts, got %q", *by)
	}
	sort.SliceStable(rows, func(i, j int) bool { return key(rows[i]) > key(rows[j]) })
	if *limit > 0 && len(rows) > *limit {
		rows = rows[:*limit]
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "UNIT\tFLAGS\tWALL_MS\tCPU_MS\tRSS_KB\tBDD_PEAK\tSAT_CONFL")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%d\n",
			r.unit, r.flags, r.wall, r.cpu, r.rss, r.nodes, r.conflict)
	}
	return w.Flush()
}

// cmdMetrics fetches the daemon's Prometheus exposition; -validate parses
// it instead of printing, failing on malformed output (the smoke script's
// scrape check).
func cmdMetrics(base string, args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	validate := fs.Bool("validate", false, "parse the exposition instead of printing it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := get(base+"/metricsz?format=prom", &buf); err != nil {
		return err
	}
	if !*validate {
		_, err := os.Stdout.Write(buf.Bytes())
		return err
	}
	n, err := obs.ValidatePromText(&buf)
	if err != nil {
		return fmt.Errorf("prometheus exposition invalid: %w", err)
	}
	fmt.Printf("ok: %d samples\n", n)
	return nil
}

// cmdTrace fetches a job's merged multi-process Chrome trace document.
func cmdTrace(base string, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	out := fs.String("o", "", "write the trace to this file (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	id, err := oneID(fs.Args())
	if err != nil {
		return err
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return get(base+"/v1/jobs/"+id+"/trace", w)
}

func cmdWait(base string, args []string) error {
	id, err := oneID(args)
	if err != nil {
		return err
	}
	return waitJob(base, id)
}

// waitJob polls the job until it reaches a terminal state, then prints
// the final status. Polling (rather than holding an event stream) makes
// wait robust against daemon restarts in between.
func waitJob(base, id string) error {
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return err
		}
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return rerr
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("wait: %s: %s", resp.Status, strings.TrimSpace(string(data)))
		}
		var st serve.JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			return err
		}
		switch st.State {
		case "done":
			os.Stdout.Write(data)
			return nil
		case "failed":
			os.Stdout.Write(data)
			return fmt.Errorf("job %s failed: %s", id, st.Error)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func cmdReport(base string, args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "fetch the JSON report instead of the canonical text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	id, err := oneID(fs.Args())
	if err != nil {
		return err
	}
	url := base + "/v1/jobs/" + id + "/report"
	if *asJSON {
		url += "?format=json"
	}
	return get(url, os.Stdout)
}

func cmdWatch(base string, args []string) error {
	id, err := oneID(args)
	if err != nil {
		return err
	}
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events?format=ndjson")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("watch: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		fmt.Println(sc.Text())
	}
	return sc.Err()
}

func oneID(args []string) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("want exactly one job ID argument")
	}
	return args[0], nil
}

func get(url string, w io.Writer) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	_, err = w.Write(data)
	return err
}
