package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one extractd child process.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	dataDir string // "" for a memory-only daemon
	client  *http.Client

	logMu   sync.Mutex
	logTail []string // last stderr lines, for diagnostics
	logDone chan struct{}
}

var listeningAddr = regexp.MustCompile(`msg=extractd\.listening addr=(\S+)`)

// startDaemon execs extractd on a kernel-chosen loopback port and waits
// for its "listening" log line.
func startDaemon(bin string, args []string, dataDir string) (*daemon, error) {
	full := append([]string{"-addr", "127.0.0.1:0", "-no-fetch"}, args...)
	if dataDir != "" {
		full = append(full, "-data-dir", dataDir)
	}
	cmd := exec.Command(bin, full...)
	// If the benchmark itself is killed, the kernel kills the daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting extractd: %w", err)
	}
	d := &daemon{
		cmd: cmd, dataDir: dataDir, logDone: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4, DisableCompression: true,
		}},
	}
	addr := make(chan string, 1)
	go d.drainLog(stderr, addr)
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.logDone:
		_ = d.stop()
		return nil, fmt.Errorf("extractd exited before listening: %s", d.tail())
	case <-time.After(30 * time.Second):
		_ = d.stop()
		return nil, fmt.Errorf("extractd did not listen within 30s: %s", d.tail())
	}
}

// drainLog reads the daemon's stderr to EOF — the daemon logs every
// request, and an unread pipe would stall it — keeping the last lines.
func (d *daemon) drainLog(r io.Reader, addr chan<- string) {
	defer close(d.logDone)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	found := false
	for sc.Scan() {
		line := sc.Text()
		if !found {
			if m := listeningAddr.FindStringSubmatch(line); m != nil {
				found = true
				addr <- m[1]
			}
		}
		d.logMu.Lock()
		if len(d.logTail) == 16 {
			d.logTail = d.logTail[1:]
		}
		d.logTail = append(d.logTail, line)
		d.logMu.Unlock()
	}
}

func (d *daemon) tail() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return strings.Join(d.logTail, "\n")
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM (graceful drain, final snapshot on a durable
// daemon), kills after 20s, and waits for the process and its log
// reader to end.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		err = fmt.Errorf("extractd ignored SIGTERM: %v", <-done)
	}
	<-d.logDone
	return err
}

// loadRepos posts every repository and returns each one's serving
// generation.
func (d *daemon) loadRepos(ctx context.Context, repos []*repoInput) (map[string]int, error) {
	gens := map[string]int{}
	for _, r := range repos {
		gen, err := d.postRepo(ctx, r)
		if err != nil {
			return nil, err
		}
		gens[r.name] = gen
	}
	return gens, nil
}

// postRepo hot-loads one repository through POST /repos and checks the
// daemon's answer names it.
func (d *daemon) postRepo(ctx context.Context, r *repoInput) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		d.base+"/repos?name="+r.name, bytes.NewReader(r.body))
	if err != nil {
		return 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("POST /repos %s: %w", r.name, err)
	}
	defer resp.Body.Close()
	var info struct {
		Name       string `json:"name"`
		Generation int    `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return 0, fmt.Errorf("POST /repos %s: status %d: %w", r.name, resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || info.Name != r.name {
		return 0, fmt.Errorf("POST /repos %s: status %d, loaded %q", r.name, resp.StatusCode, info.Name)
	}
	return info.Generation, nil
}

func (d *daemon) healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/healthz: status %d", resp.StatusCode)
	}
	return nil
}

// scrape reads /metrics in its Prometheus view.
func (d *daemon) scrape(ctx context.Context) (promSeries, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// bootDaemon starts one daemon and brings it to serving: exec, listening,
// /healthz answering, every repository loaded. It returns the daemon,
// that set-up time and the repositories' generations.
func bootDaemon(ctx context.Context, cfg *runConfig, in *inputs, dataDir string) (*daemon, time.Duration, map[string]int, error) {
	start := time.Now()
	d, err := startDaemon(cfg.extractd, cfg.w.daemonArgs, dataDir)
	if err != nil {
		return nil, 0, nil, err
	}
	if err := d.healthz(ctx); err != nil {
		_ = d.stop()
		return nil, 0, nil, err
	}
	gens, err := d.loadRepos(ctx, in.repos)
	if err != nil {
		_ = d.stop()
		return nil, 0, nil, fmt.Errorf("%w\n%s", err, d.tail())
	}
	return d, time.Since(start), gens, nil
}

// setupRounds is how many times a run boots the daemon; setup_s is the
// median, and the last daemon serves the workload.
const setupRounds = 9

// bootMeasured boots the daemon setupRounds times, stopping all but the
// last, and returns the serving daemon and every set-up time.
func bootMeasured(ctx context.Context, cfg *runConfig, in *inputs) (*daemon, []time.Duration, map[string]int, error) {
	var times []time.Duration
	for i := 0; ; i++ {
		dataDir := ""
		if cfg.w.durable {
			dataDir = filepath.Join(cfg.out, fmt.Sprintf("data-%d-%d", os.Getpid(), i))
			if err := os.RemoveAll(dataDir); err != nil {
				return nil, nil, nil, err
			}
		}
		d, took, gens, err := bootDaemon(ctx, cfg, in, dataDir)
		if err != nil {
			return nil, nil, nil, err
		}
		times = append(times, took)
		if i == setupRounds-1 {
			return d, times, gens, nil
		}
		if err := d.shutdown(); err != nil {
			return nil, nil, nil, err
		}
	}
}

// shutdown stops the daemon and removes its data directory.
func (d *daemon) shutdown() error {
	err := d.stop()
	if d.dataDir != "" {
		if rmErr := os.RemoveAll(d.dataDir); err == nil {
			err = rmErr
		}
	}
	return err
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
