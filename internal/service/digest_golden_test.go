package service_test

import (
	"context"
	"testing"

	"surfcomm/internal/service"
)

// TestDigestGolden pins the cache digest and routing key of one flat
// and one hierarchical request, and the hierarchical plan's link
// digest. Plans persisted under these digests (disk stores, module
// caches) are only found again while the bytes they hash stay the
// same, so any change here invalidates every existing store.
func TestDigestGolden(t *testing.T) {
	cases := []struct {
		name, qasm, digest, key, link string
	}{
		{"flat-gse", testQASM(t),
			"b2bf9e29182b592ba076a739032ca3a59049ca6061ee430cc9c5806dff2ee713",
			"f84a3e37454f179a1c7fe003781509740ddd1155d98ad51b24881ecc1de42fed",
			""},
		{"pipeline-4", pipelineQASM(t, 4, 0),
			"03e20e3b38bcc7d0996b72f1226c9d104df93d5083acd2fbf0dfc60234b0dfc1",
			"5c646c3be893ff65db0016cc31b15db93ef0cf5904de6f9b32c64576ccb81e80",
			"290abd35b1600165e2c6526338bf4aec4357d3b9a15d61faca35cb54702a462b"},
	}
	for _, tc := range cases {
		req := service.Request{QASM: tc.qasm}
		res, err := newService(t, service.Config{}).Compile(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		key, err := service.RoutingKey(req)
		if err != nil {
			t.Fatal(err)
		}
		link := ""
		if res.Plan.Modular != nil {
			link = res.Plan.Modular.LinkDigest
		}
		if res.Digest != tc.digest || key != tc.key || link != tc.link {
			t.Errorf("%s: digest %s, routing key %s, link digest %q; want %s, %s, %q",
				tc.name, res.Digest, key, link, tc.digest, tc.key, tc.link)
		}
	}
}
