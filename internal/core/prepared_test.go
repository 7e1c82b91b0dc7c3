package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"shark/internal/exec"
	"shark/internal/mr"
	"shark/internal/plan"
	"shark/internal/row"
	"shark/internal/sqlparse"
)

// TestLimitParam: `LIMIT ?` binds like any other parameter, one-shot
// and prepared, and returns exactly the rows of the literal form — on
// this engine and on the Hive/MR oracle running the bound plan. Every
// argument the slot cannot take is an ErrBind that leaves the session
// usable.
func TestLimitParam(t *testing.T) {
	e := newEnv(t, exec.Options{})
	setupVisits(t, e, 1000, true)
	ctx := context.Background()
	const tmpl = `SELECT sourceIP, adRevenue FROM uservisits_ext WHERE adRevenue > ?
		ORDER BY adRevenue DESC, sourceIP LIMIT ?`
	want := e.mustExec(t, `SELECT sourceIP, adRevenue FROM uservisits_ext WHERE adRevenue > 10.0
		ORDER BY adRevenue DESC, sourceIP LIMIT 7`).Rows
	if len(want) != 7 {
		t.Fatalf("literal form returned %d rows, want 7", len(want))
	}
	good := row.Row{10.0, int64(7)}
	sameRows := func(name string, got []row.Row) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s:\n got %v\nwant %v", name, got, want)
		}
	}

	res, err := e.s.ExecArgsCtx(ctx, tmpl, good)
	if err != nil {
		t.Fatalf("one-shot: %v", err)
	}
	sameRows("one-shot", res.Rows)
	p, err := e.s.Prepare(tmpl)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if p.NumParams() != 2 {
		t.Fatalf("NumParams = %d, want 2", p.NumParams())
	}
	if res, err = e.s.ExecPrepared(p, good); err != nil {
		t.Fatalf("prepared: %v", err)
	}
	sameRows("prepared", res.Rows)
	if res, err = e.s.ExecPrepared(p, row.Row{10.0, int64(0)}); err != nil || len(res.Rows) != 0 {
		t.Errorf("LIMIT 0: %d rows, err %v", len(res.Rows), err)
	}

	// The oracle runs the same bound tree.
	stmt, err := sqlparse.Parse(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := sqlparse.Bind(stmt, good)
	if err != nil {
		t.Fatal(err)
	}
	node, err := plan.Analyze(e.s.Cat, bound.(*sqlparse.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	hive, err := mr.NewHive(mr.NewEngine(e.s.Ctx.Cluster, e.fs, t.TempDir()), mr.HiveOptions{}).Run(node)
	if err != nil {
		t.Fatalf("hive: %v", err)
	}
	sameRows("hive/mr", hive.Rows)

	for _, tc := range []struct {
		name string
		args row.Row
	}{
		{"negative", row.Row{10.0, int64(-1)}},
		{"float64", row.Row{10.0, 7.0}},
		{"string", row.Row{10.0, "1; DROP TABLE uservisits_ext"}},
		{"nil", row.Row{10.0, nil}},
		{"missing", row.Row{10.0}},
		{"surplus", row.Row{10.0, int64(7), int64(7)}},
	} {
		if _, err := e.s.ExecArgsCtx(ctx, tmpl, tc.args); !errors.Is(err, ErrBind) {
			t.Errorf("%s one-shot: err = %v, want ErrBind", tc.name, err)
		}
		if _, err := e.s.ExecPreparedCtx(ctx, p, tc.args); !errors.Is(err, ErrBind) {
			t.Errorf("%s prepared: err = %v, want ErrBind", tc.name, err)
		}
	}
	// A statement with an unbound `?` is a bind failure on every entry
	// point that takes no arguments; text that does not parse is not.
	if _, err := e.s.ExecContext(ctx, tmpl); !errors.Is(err, ErrBind) {
		t.Errorf("ExecContext with unbound params: err = %v, want ErrBind", err)
	}
	if _, err := e.s.Query(`SELECT sourceIP FROM uservisits_ext LIMIT ?`); !errors.Is(err, ErrBind) {
		t.Errorf("Query with unbound LIMIT ?: err = %v, want ErrBind", err)
	}
	if _, err := e.s.ExecArgsCtx(ctx, `SELECT FROM WHERE ?`, row.Row{int64(1)}); err == nil || errors.Is(err, ErrBind) {
		t.Errorf("parse failure: err = %v, want a plain SQL error", err)
	}
	// The session, the handle and the table all survived.
	if res, err = e.s.ExecPrepared(p, good); err != nil {
		t.Fatalf("session unusable after rejected binds: %v", err)
	}
	sameRows("after rejected binds", res.Rows)
}
