package algo

import (
	"context"
	"strings"
	"testing"
)

func noopRun(_ context.Context, _ *Graph, _ Params) (Result, error) { return Result{}, nil }

func TestRegisterRejectsBadDescriptors(t *testing.T) {
	cases := []struct {
		label string
		d     Descriptor
	}{
		{"no name", Descriptor{Tier: TierBasic, Run: noopRun}},
		{"bad tier", Descriptor{Name: "x", Tier: "expert", Run: noopRun}},
		{"nil run", Descriptor{Name: "x", Tier: TierBasic}},
		{"unnamed param", Descriptor{Name: "x", Tier: TierBasic, Run: noopRun,
			Params: []Spec{{Type: TInt}}}},
		{"dup param", Descriptor{Name: "x", Tier: TierBasic, Run: noopRun,
			Params: []Spec{{Name: "a", Type: TInt}, {Name: "a", Type: TBool}}}},
		{"bad param type", Descriptor{Name: "x", Tier: TierBasic, Run: noopRun,
			Params: []Spec{{Name: "a", Type: "uint128"}}}},
	}
	for _, tc := range cases {
		c := NewCatalog()
		if err := c.Register(tc.d); err == nil {
			t.Errorf("%s: registration accepted", tc.label)
		}
	}

	c := NewCatalog()
	ok := Descriptor{Name: "x", Tier: TierBasic, Run: noopRun}
	if err := c.Register(ok); err != nil {
		t.Fatalf("good descriptor rejected: %v", err)
	}
	if err := c.Register(ok); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestLookupUnknownCarriesKnownNames(t *testing.T) {
	_, err := Default().Lookup("nope")
	if err == nil || !IsUnknown(err) {
		t.Fatalf("err = %v, want ErrUnknown", err)
	}
	msg := err.Error()
	for _, want := range []string{"bfs", "pagerank", "lcc", "tc.advanced"} {
		if !strings.Contains(msg, want) {
			t.Errorf("unknown-algorithm message %q does not list %q", msg, want)
		}
	}
}

func TestBuiltinCatalogShape(t *testing.T) {
	c := Builtin()
	wantBasic := []string{"bc", "bfs", "cc", "lcc", "pagerank", "sssp", "tc"}
	wantAdvanced := []string{"bellmanford", "bfs.level", "cc.advanced", "cdlp", "ktruss", "mis", "pagerank.gx", "tc.advanced"}

	infos := c.List()
	var gotBasic, gotAdvanced []string
	for _, in := range infos {
		switch in.Tier {
		case TierBasic:
			gotBasic = append(gotBasic, in.Name)
		case TierAdvanced:
			gotAdvanced = append(gotAdvanced, in.Name)
		default:
			t.Fatalf("%s: unknown tier %q", in.Name, in.Tier)
		}
	}
	// List orders basic first, alphabetical within tier.
	if strings.Join(gotBasic, ",") != strings.Join(wantBasic, ",") {
		t.Fatalf("basic tier = %v, want %v", gotBasic, wantBasic)
	}
	if strings.Join(gotAdvanced, ",") != strings.Join(wantAdvanced, ",") {
		t.Fatalf("advanced tier = %v, want %v", gotAdvanced, wantAdvanced)
	}
	for _, in := range infos {
		if in.Doc == "" {
			t.Errorf("%s: empty doc", in.Name)
		}
		if in.Params == nil {
			t.Errorf("%s: nil params (introspection must render [])", in.Name)
		}
	}

	// Introspection of property requirements works without a graph.
	for _, name := range c.Names() {
		d, _ := c.Get(name)
		_ = d.RequiredProperties(nil)
	}
}

func TestMarkdownSplice(t *testing.T) {
	c := Builtin()
	readme := "# Title\n\n" + MarkdownBegin + "\nold stale text\n" + MarkdownEnd + "\n\ntail\n"
	out, err := c.SpliceMarkdown(readme)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "#### `lcc`") || !strings.Contains(out, "#### `tc.advanced`") {
		t.Fatalf("spliced reference missing entries:\n%s", out)
	}
	if strings.Contains(out, "old stale text") {
		t.Fatal("stale text survived the splice")
	}
	if !strings.HasSuffix(out, "tail\n") || !strings.HasPrefix(out, "# Title\n") {
		t.Fatal("text outside the markers was disturbed")
	}
	// Splicing is idempotent.
	again, err := c.SpliceMarkdown(out)
	if err != nil {
		t.Fatal(err)
	}
	if again != out {
		t.Fatal("splice is not idempotent")
	}
	// Missing markers are an error.
	if _, err := c.SpliceMarkdown("no markers here"); err == nil {
		t.Fatal("missing markers accepted")
	}
}
