package har

import (
	"encoding/json"
	"testing"
	"time"
)

func TestRecount(t *testing.T) {
	p := PageLog{Entries: []Entry{
		{ReusedConn: true},
		{ReusedConn: true, ResumedConn: true},
		{},
	}}
	p.Recount()
	if p.ReusedConns != 2 || p.ResumedConns != 1 {
		t.Fatalf("reused=%d resumed=%d", p.ReusedConns, p.ResumedConns)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	l := &Log{
		Seed: 42,
		Pages: []PageLog{{
			Site:     "site001.sim",
			Protocol: "h3",
			Probe:    "utah/0",
			PLT:      1234 * time.Millisecond,
			Entries: []Entry{{
				URL:      "https://s0.google-cdn.sim/a.js",
				Host:     "s0.google-cdn.sim",
				Protocol: "h3",
				Status:   200,
				BodySize: 4096,
				Header:   map[string]string{"server": "gws"},
				Connect:  5 * time.Millisecond,
				Wait:     20 * time.Millisecond,
				Receive:  3 * time.Millisecond,
			}},
		}},
	}
	b, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	got := new(Log)
	if err := json.Unmarshal(b, got); err != nil {
		t.Fatal(err)
	}
	if got.Seed != 42 || len(got.Pages) != 1 {
		t.Fatalf("log = %+v", got)
	}
	p := got.Pages[0]
	if p.Site != "site001.sim" || p.PLT != 1234*time.Millisecond {
		t.Fatalf("page = %+v", p)
	}
	e := p.Entries[0]
	if e.Host != "s0.google-cdn.sim" || e.Header["server"] != "gws" || e.Wait != 20*time.Millisecond {
		t.Fatalf("entry = %+v", e)
	}
}
