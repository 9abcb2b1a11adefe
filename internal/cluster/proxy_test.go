package cluster_test

import (
	"bytes"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"surfcomm"
	"surfcomm/internal/cluster"
	"surfcomm/internal/service"
)

// lockedBuffer is a bytes.Buffer safe for the server's error log.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// loggedServer starts handler with its error log (where net/http
// reports recovered handler panics) captured.
func loggedServer(t *testing.T, handler http.Handler) (*httptest.Server, *lockedBuffer) {
	t.Helper()
	var errLog lockedBuffer
	srv := httptest.NewUnstartedServer(handler)
	srv.Config.ErrorLog = log.New(&errLog, "", 0)
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, &errLog
}

// TestDecodeRelayStreamEndsWhileClientSends ends /decode streams, via
// the router, while the client still holds its body open: the replica
// answers the end frame at once, and the client closes its body only a
// moment later (as a real client does right after sending the end
// frame). A handler that returns before the body ends leaves net/http to
// read that end after the handler, where it collides with the read of
// the next request on the kept-alive connection and panics ("invalid
// concurrent Body.Read call"). Neither the replica nor the router may
// log a panic, and every stream must still end in its summary.
func TestDecodeRelayStreamEndsWhileClientSends(t *testing.T) {
	tc, err := surfcomm.NewToolchain(surfcomm.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(tc, service.Config{})
	t.Cleanup(svc.Close)
	replica, replicaLog := loggedServer(t, service.NewHandler(svc))
	rt, err := cluster.New(cluster.Config{Replicas: []cluster.ReplicaConfig{{Name: "a", URL: replica.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front, routerLog := loggedServer(t, rt)

	client := &http.Client{Transport: &http.Transport{}}
	t.Cleanup(client.CloseIdleConnections)
	for i := 0; i < 3; i++ {
		pr, pw := io.Pipe()
		go func() {
			io.WriteString(pw, `{"distance":3,"window":1}`+"\n"+`{"end":true}`+"\n") //nolint:errcheck
			time.Sleep(20 * time.Millisecond)
			pw.Close()
		}()
		req, err := http.NewRequest(http.MethodPost, front.URL+"/decode", pr)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", service.NDJSONContentType)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || !strings.Contains(string(body), `"done":true`) {
			t.Fatalf("stream %d: %q, %v", i, body, err)
		}
	}
	// A recovered panic is logged as the server goes for the next
	// request; give both servers a moment to get there.
	time.Sleep(50 * time.Millisecond)
	for name, l := range map[string]*lockedBuffer{"replica": replicaLog, "router": routerLog} {
		if strings.Contains(l.String(), "panic") {
			t.Errorf("%s server panicked:\n%s", name, l.String())
		}
	}
}
