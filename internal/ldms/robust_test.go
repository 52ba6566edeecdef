package ldms

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

func TestBackoffScheduleIsCapped(t *testing.T) {
	o := DialOptions{Backoff: 10 * time.Millisecond, BackoffCap: 35 * time.Millisecond}.withDefaults()
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		35 * time.Millisecond, // 40ms capped
		35 * time.Millisecond,
	}
	for i, w := range want {
		if got := o.backoffFor(i); got != w {
			t.Fatalf("backoffFor(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestSampleDeadlineOnStalledServer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// A server that accepts the connection and then never responds — the
	// exact failure a hung remote sampler produces.
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			_, _ = bufio.NewReader(conn).ReadBytes('\n') // swallow request, never reply
		}
	}()

	sampler, closer, err := DialWithOptions(l.Addr().String(), DialOptions{
		DialTimeout:   time.Second,
		SampleTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	start := time.Now()
	_, err = sampler.Sample()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Sample succeeded against a stalled server")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err = %v, want a net timeout", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline did not bound the stall: took %v", elapsed)
	}
}

// garbageFirstServer answers the first request on each connection with bytes
// that are not valid JSON, then answers subsequent requests correctly.
func garbageFirstServer(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				first := true
				for {
					if _, err := br.ReadBytes('\n'); err != nil {
						return
					}
					if first {
						first = false
						fmt.Fprintf(conn, "\x00\xffgarbage\n")
						continue
					}
					fmt.Fprintf(conn, `{"producer":"remote","name":"test","time_ns":0,"metrics":[{"name":"x","value":7}]}`+"\n")
				}
			}(conn)
		}
	}()
	return l
}

func TestSampleRetriesAfterGarbageResponse(t *testing.T) {
	l := garbageFirstServer(t)
	defer l.Close()

	var pauses []time.Duration
	opts := DialOptions{
		SampleTimeout: time.Second,
		Retries:       2,
		Backoff:       10 * time.Millisecond,
		sleep:         func(d time.Duration) { pauses = append(pauses, d) },
	}
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sampler := NewConnSampler(conn, opts)

	set, err := sampler.Sample()
	if err != nil {
		t.Fatalf("retry did not absorb the garbage response: %v", err)
	}
	if v, ok := set.Get("x"); !ok || v != 7 {
		t.Fatalf("set = %+v", set)
	}
	if len(pauses) != 1 || pauses[0] != 10*time.Millisecond {
		t.Fatalf("backoff pauses = %v, want one 10ms pause", pauses)
	}
}

func TestSampleExhaustsRetries(t *testing.T) {
	sampleErr := errors.New("persistent failure")
	calls := 0
	// Drive the retry loop through a SamplerFunc-free path: a remoteSampler
	// needs a conn, so test at the aggregator-visible level with a sampler
	// that always fails is not the retry path. Instead wrap a conn whose
	// writes always fail.
	conn := failingConn{err: sampleErr, calls: &calls}
	var pauses []time.Duration
	sampler := NewConnSampler(conn, DialOptions{
		Retries: 3,
		Backoff: 5 * time.Millisecond,
		sleep:   func(d time.Duration) { pauses = append(pauses, d) },
	})
	if _, err := sampler.Sample(); !errors.Is(err, sampleErr) {
		t.Fatalf("err = %v, want %v", err, sampleErr)
	}
	if calls != 4 {
		t.Fatalf("attempts = %d, want 4 (1 + 3 retries)", calls)
	}
	if len(pauses) != 3 {
		t.Fatalf("pauses = %v, want 3", pauses)
	}
}

// failingConn is a net.Conn whose every write fails.
type failingConn struct {
	err   error
	calls *int
}

func (f failingConn) Read(b []byte) (int, error)  { return 0, f.err }
func (f failingConn) Write(b []byte) (int, error) { *f.calls++; return 0, f.err }
func (f failingConn) Close() error                { return nil }
func (f failingConn) LocalAddr() net.Addr         { return nil }
func (f failingConn) RemoteAddr() net.Addr        { return nil }
func (f failingConn) SetDeadline(time.Time) error { return nil }
func (f failingConn) SetReadDeadline(time.Time) error {
	return nil
}
func (f failingConn) SetWriteDeadline(time.Time) error { return nil }

// switchableSampler fails while broken is set.
type switchableSampler struct {
	broken bool
	calls  int
}

func (s *switchableSampler) Sample() (MetricSet, error) {
	s.calls++
	if s.broken {
		return MetricSet{}, errors.New("sampler down")
	}
	return MetricSet{Producer: "rank0", Name: "test", Metrics: []Metric{{Name: "x", Value: 1}}}, nil
}

func TestAggregatorBreakerTripsSkipsAndRecovers(t *testing.T) {
	agg := NewAggregator(nil, 0)
	agg.SetBreaker(BreakerOptions{Threshold: 2, Cooldown: 2})
	store := NewMemStore()
	agg.AddStore(store)
	s := &switchableSampler{broken: true}
	agg.AddSampler(s)

	// Rounds 1-2 fail and trip the breaker; rounds 3-4 are skipped without
	// touching the sampler; round 5 probes the (now healed) sampler.
	agg.CollectOnce()
	agg.CollectOnce()
	if agg.BreakerTrips() != 1 {
		t.Fatalf("trips after 2 failures = %d, want 1", agg.BreakerTrips())
	}
	agg.CollectOnce()
	agg.CollectOnce()
	if s.calls != 2 {
		t.Fatalf("sampler pulled %d times during cooldown, want 2", s.calls)
	}
	if agg.SkippedPulls() != 2 {
		t.Fatalf("skipped = %d, want 2", agg.SkippedPulls())
	}
	s.broken = false
	if err := agg.CollectOnce(); err != nil {
		t.Fatalf("probe round failed: %v", err)
	}
	if s.calls != 3 {
		t.Fatalf("probe did not pull the sampler: calls = %d", s.calls)
	}
	if len(store.Sets()) != 1 {
		t.Fatalf("stored %d sets after recovery, want 1", len(store.Sets()))
	}
	// Recovered breaker stays closed.
	agg.CollectOnce()
	if agg.BreakerTrips() != 1 || len(store.Sets()) != 2 {
		t.Fatalf("post-recovery round: trips=%d sets=%d", agg.BreakerTrips(), len(store.Sets()))
	}
}

func TestAggregatorBreakerRetripsOnFailedProbe(t *testing.T) {
	agg := NewAggregator(nil, 0)
	agg.SetBreaker(BreakerOptions{Threshold: 1, Cooldown: 1})
	s := &switchableSampler{broken: true}
	agg.AddSampler(s)

	agg.CollectOnce() // fail -> trip 1
	agg.CollectOnce() // skipped
	agg.CollectOnce() // probe fails -> trip 2
	if agg.BreakerTrips() != 2 {
		t.Fatalf("trips = %d, want 2", agg.BreakerTrips())
	}
	if s.calls != 2 {
		t.Fatalf("calls = %d, want 2", s.calls)
	}
}

func TestAggregatorBreakerDisabledByDefault(t *testing.T) {
	agg := NewAggregator(nil, 0)
	s := &switchableSampler{broken: true}
	agg.AddSampler(s)
	for i := 0; i < 5; i++ {
		agg.CollectOnce()
	}
	if s.calls != 5 || agg.BreakerTrips() != 0 || agg.SkippedPulls() != 0 {
		t.Fatalf("breaker interfered while disabled: calls=%d trips=%d skipped=%d",
			s.calls, agg.BreakerTrips(), agg.SkippedPulls())
	}
}

// A peer that streams bytes and never a newline gets ErrResponseTooLarge
// once MaxResponseBytes have arrived, not a buffer that grows with the
// stream.
func TestSampleBoundsResponseWithoutNewline(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = bufio.NewReader(conn).ReadBytes('\n')
		chunk := make([]byte, 64<<10)
		for i := range chunk {
			chunk[i] = 'x'
		}
		for {
			if _, err := conn.Write(chunk); err != nil {
				return
			}
		}
	}()
	sampler, closer, err := DialWithOptions(l.Addr().String(), DialOptions{DialTimeout: time.Second, SampleTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if _, err := sampler.Sample(); !errors.Is(err, ErrResponseTooLarge) {
		t.Fatalf("err = %v, want ErrResponseTooLarge", err)
	}
}

// A response exactly at the bound still decodes; one byte more does not.
func TestReadResponseBound(t *testing.T) {
	line := `{"producer":"p","name":"n","time_ns":1,"metrics":[{"name":"x","value":2}]}`
	pad := strings.Repeat(" ", MaxResponseBytes-len(line)-1)
	for _, tc := range []struct {
		in      string
		tooLong bool
	}{{line + pad + "\n", false}, {line + pad + " \n", true}} {
		got, err := readResponse(bufio.NewReader(strings.NewReader(tc.in)))
		if tc.tooLong {
			if !errors.Is(err, ErrResponseTooLarge) {
				t.Fatalf("%d-byte line: err = %v, want ErrResponseTooLarge", len(tc.in), err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%d-byte line: %v", len(tc.in), err)
		}
		set, err := decodeResponse(got)
		if v, ok := set.Get("x"); err != nil || !ok || v != 2 {
			t.Fatalf("%d-byte line decoded to %+v, %v", len(tc.in), set, err)
		}
	}
}

// A Serve endpoint's error reply is an error, not an empty metric set.
func TestDecodeResponseServerError(t *testing.T) {
	if _, err := decodeResponse([]byte(`{"error":"sampler down"}` + "\n")); err == nil || !strings.Contains(err.Error(), "sampler down") {
		t.Fatalf("err = %v, want the remote sampler's error", err)
	}
}

// FuzzDecodeResponse: any bytes a peer sends yield a metric set or an
// error, never a panic; a response never exceeds MaxResponseBytes; and a
// decoded set survives the encode the server side would apply.
func FuzzDecodeResponse(f *testing.F) {
	f.Add([]byte(`{"producer":"rank0","name":"appekg","time_ns":5,"metrics":[{"name":"hb","value":1.5}]}` + "\n"))
	f.Add([]byte(`{"error":"bad request"}` + "\n"))
	f.Add([]byte("\x00\xffgarbage\n"))
	f.Add([]byte(`{"metrics":null}`))
	f.Add([]byte(`{"error":null,"producer":"p"}` + "\n" + `{"producer":"q"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			line, err := readResponse(br)
			if len(line) > MaxResponseBytes {
				t.Fatalf("%d-byte response past the %d-byte bound", len(line), MaxResponseBytes)
			}
			if err != nil {
				return
			}
			set, err := decodeResponse(line)
			if err != nil {
				continue
			}
			if _, err := json.Marshal(set); err != nil {
				t.Fatalf("decoded set %+v does not encode: %v", set, err)
			}
		}
	})
}
