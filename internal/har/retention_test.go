package har

import "testing"

func TestParseRetention(t *testing.T) {
	cases := []struct {
		in      string
		want    Retention
		wantErr bool
	}{
		{in: "all", want: Retention{Kind: RetainAll}},
		{in: "none", want: Retention{Kind: RetainNone}},
		{in: "sample:16", want: Retention{Kind: RetainSample, Sample: 16}},
		{in: "sample:1", want: Retention{Kind: RetainSample, Sample: 1}},
		{in: "sample:0", wantErr: true},
		{in: "sample:-3", wantErr: true},
		{in: "sample:", wantErr: true},
		{in: "sample:x", wantErr: true},
		{in: "some", wantErr: true},
		{in: "", wantErr: true},
		{in: "ALL", wantErr: true},
	}
	for _, c := range cases {
		got, err := ParseRetention(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseRetention(%q): want error, got %+v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseRetention(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseRetention(%q) = %+v, want %+v", c.in, got, c.want)
		}
		if got.Validate() != nil {
			t.Errorf("ParseRetention(%q).Validate() failed", c.in)
		}
		back, err := ParseRetention(got.String())
		if err != nil || back != got {
			t.Errorf("round-trip of %q via String() = %q failed", c.in, got.String())
		}
	}
}

// TestRetentionSet: as a flag.Value, a *Retention takes exactly what
// ParseRetention accepts and keeps its value on a malformed one.
func TestRetentionSet(t *testing.T) {
	for _, in := range []string{"all", "none", "sample:64", "sample:1", "sample:0", "sample:-1", "sample:lots", "keep", ""} {
		want, wantErr := ParseRetention(in)
		r := Retention{Kind: RetainSample, Sample: 9}
		err := r.Set(in)
		if (err != nil) != (wantErr != nil) {
			t.Errorf("Set(%q): error %v, ParseRetention error %v", in, err, wantErr)
			continue
		}
		if err != nil {
			want = Retention{Kind: RetainSample, Sample: 9}
		}
		if r != want {
			t.Errorf("Set(%q) left %+v, want %+v", in, r, want)
		}
	}
}

func TestRetentionValidate(t *testing.T) {
	if (Retention{}).Validate() != nil {
		t.Error("zero-value retention (RetainAll) must validate")
	}
	if (Retention{Kind: RetainSample}).Validate() == nil {
		t.Error("RetainSample without a size must not validate")
	}
	if (Retention{Kind: RetentionKind(42)}).Validate() == nil {
		t.Error("unknown kind must not validate")
	}
}

// FuzzParseRetention: whatever -har-retention string ParseRetention
// accepts is a valid policy that renders back to itself.
func FuzzParseRetention(f *testing.F) {
	for _, s := range []string{"all", "none", "sample:1", "sample:64", "sample:+7", "sample:0", "sample:-1", "sample:", "keep", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, err := ParseRetention(s)
		if err != nil {
			return
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("ParseRetention(%q) = %+v, which fails Validate: %v", s, r, err)
		}
		back, err := ParseRetention(r.String())
		if err != nil || back != r {
			t.Fatalf("ParseRetention(%q) = %+v renders %q, which parses to %+v, %v", s, r, r.String(), back, err)
		}
	})
}
