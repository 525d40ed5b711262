package graph

import (
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	g := New()
	a := g.MustAddOp(&Op{
		Name: "conv", Kind: KindConv2D, FLOPs: 123, ParamBytes: 456,
		OutputBytes: 789, WorkspaceBytes: 10, Batch: 8, Channels: 64,
		Replica: -1, GradFor: "x", ColocateWith: "y",
	})
	b := g.MustAddOp(&Op{Name: "relu", Kind: KindRelu, Batch: 8})
	g.MustConnect(a, b, 789)

	var sb strings.Builder
	if err := g.WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if got.NumOps() != 2 || got.NumEdges() != 1 {
		t.Fatalf("shape = %d ops %d edges", got.NumOps(), got.NumEdges())
	}
	conv, ok := got.OpByName("conv")
	if !ok {
		t.Fatal("conv missing")
	}
	want := g.Op(a)
	if conv.Kind != want.Kind || conv.FLOPs != want.FLOPs ||
		conv.ParamBytes != want.ParamBytes || conv.OutputBytes != want.OutputBytes ||
		conv.WorkspaceBytes != want.WorkspaceBytes || conv.Batch != want.Batch ||
		conv.Channels != want.Channels || conv.Replica != want.Replica ||
		conv.GradFor != want.GradFor || conv.ColocateWith != want.ColocateWith {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", conv, want)
	}
	e := got.Edges()[0]
	if got.Op(e.From).Name != "conv" || got.Op(e.To).Name != "relu" || e.Bytes != 789 {
		t.Errorf("edge mismatch: %+v", e)
	}
}

func TestReadJSONRejectsUnknownKind(t *testing.T) {
	doc := `{"ops":[{"name":"x","kind":"Quantum"}],"edges":[]}`
	if _, err := ReadJSON(strings.NewReader(doc)); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestReadJSONRejectsDanglingEdge(t *testing.T) {
	doc := `{"ops":[{"name":"x","kind":"Relu"}],"edges":[{"from":"x","to":"y","bytes":1}]}`
	if _, err := ReadJSON(strings.NewReader(doc)); err == nil {
		t.Error("dangling edge accepted")
	}
}

func TestReadJSONRejectsNegativeAttributes(t *testing.T) {
	for _, tc := range []struct{ name, op, edge string }{
		{"flops", `"flops":-1000000000000`, `1`},
		{"paramBytes", `"paramBytes":-8`, `1`},
		{"outputBytes", `"outputBytes":-4`, `1`},
		{"workspaceBytes", `"workspaceBytes":-1`, `1`},
		{"edge bytes", `"flops":1`, `-1`},
	} {
		doc := `{"ops":[{"name":"x","kind":"Input"},{"name":"y","kind":"MatMul",` + tc.op + `}],` +
			`"edges":[{"from":"x","to":"y","bytes":` + tc.edge + `}]}`
		if _, err := ReadJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("negative %s accepted", tc.name)
		}
	}
}

func TestReadJSONRejectsUnknownFields(t *testing.T) {
	doc := `{"ops":[{"name":"x","kind":"Relu","bogus":1}],"edges":[]}`
	if _, err := ReadJSON(strings.NewReader(doc)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestJSONRoundTripModelScale(t *testing.T) {
	g := chainGraph(t, 10)
	var sb strings.Builder
	if err := g.WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if got.ComputeStats() != g.ComputeStats() {
		t.Errorf("stats changed: %+v vs %+v", got.ComputeStats(), g.ComputeStats())
	}
}
