package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"wattdb/internal/cc"
	"wattdb/internal/chbench"
	"wattdb/internal/cluster"
	"wattdb/internal/exec"
	"wattdb/internal/sim"
	"wattdb/internal/table"
	"wattdb/internal/tpcc"
)

// checkOutputs verifies the quiesced cluster's state through the public
// session API. It returns the first violation found, or nil. Requests that
// failed with an error are counted as failed operations, not checked here:
// the checks judge what the cluster stored and answered.
func (w *world) checkOutputs(p *sim.Proc) error {
	if n := w.c.Master.Failovers(); n != 0 {
		return fmt.Errorf("%d coordinator failovers in a crash-free run", n)
	}
	if err := w.checkTPCC(p); err != nil {
		return fmt.Errorf("tpc-c consistency: %w", err)
	}
	if w.sp.migrate {
		if err := w.checkRecordCounts(p); err != nil {
			return fmt.Errorf("record counts: %w", err)
		}
		if err := w.checkMovedRanges(); err != nil {
			return fmt.Errorf("rebalance routing: %w", err)
		}
	}
	if w.sp.streams > 0 {
		if err := w.checkFollowerQuery(p); err != nil {
			return fmt.Errorf("follower analytics: %w", err)
		}
	}
	return nil
}

func approxEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkTPCC checks the TPC-C consistency conditions on a snapshot:
// W_YTD grew by as much as its districts' D_YTD together (the loaded values
// are 300000 and 30000 whatever the district count); D_NEXT_O_ID - 1 is the
// district's highest order id; every order has O_OL_CNT order lines; every
// NEW_ORDER row names an existing order; and the NewOrders the clients saw
// commit advanced D_NEXT_O_ID by exactly their number.
func (w *world) checkTPCC(p *sim.Proc) error {
	s := w.c.Master.Begin(p, cc.SnapshotIsolation, w.c.Nodes[0])
	defer s.Abort(p)
	schemas := w.dep.Schemas
	read := func(tbl string, keyVals ...any) (table.Row, error) {
		key, err := schemas[tbl].EncodeKeyPrefix(keyVals...)
		if err != nil {
			return nil, err
		}
		raw, ok, err := s.Get(p, tbl, key)
		if err != nil {
			return nil, fmt.Errorf("%s %v: %w", tbl, keyVals, err)
		}
		if !ok {
			return nil, fmt.Errorf("%s %v missing", tbl, keyVals)
		}
		return schemas[tbl].DecodeRow(raw)
	}
	scan := func(tbl string, wh, d int64, fn func(table.Row)) error {
		sc := schemas[tbl]
		lo, _ := sc.EncodeKeyPrefix2(wh, d)
		hi, _ := sc.EncodeKeyPrefix2(wh, d+1)
		var derr error
		err := s.Scan(p, tbl, lo, hi, func(_, payload []byte) bool {
			row, err := sc.DecodeRow(payload)
			if err != nil {
				derr = err
				return false
			}
			fn(row)
			return true
		})
		return errors.Join(err, derr)
	}

	placed := 0
	for wh := int64(1); wh <= warehouses; wh++ {
		wRow, err := read(tpcc.TWarehouse, wh)
		if err != nil {
			return err
		}
		dGrowth := 0.0
		for d := int64(1); d <= districtsPerW; d++ {
			dRow, err := read(tpcc.TDistrict, wh, d)
			if err != nil {
				return err
			}
			dGrowth += dRow[4].(float64) - loadedDYTD
			next := dRow[5].(int64)
			placed += int(next - loadedNext)

			olCnt := map[int64]int64{}
			maxO := int64(0)
			if err := scan(tpcc.TOrders, wh, d, func(r table.Row) {
				o := r[2].(int64)
				olCnt[o] = r[6].(int64)
				maxO = max(maxO, o)
			}); err != nil {
				return err
			}
			if maxO != next-1 {
				return fmt.Errorf("district %d/%d: D_NEXT_O_ID=%d but highest order is %d", wh, d, next, maxO)
			}
			lines := map[int64]int64{}
			if err := scan(tpcc.TOrderLine, wh, d, func(r table.Row) { lines[r[2].(int64)]++ }); err != nil {
				return err
			}
			for o, want := range olCnt {
				if lines[o] != want {
					return fmt.Errorf("order %d/%d/%d: O_OL_CNT=%d but %d order lines", wh, d, o, want, lines[o])
				}
			}
			if len(lines) != len(olCnt) {
				return fmt.Errorf("district %d/%d: order lines for %d orders, %d orders", wh, d, len(lines), len(olCnt))
			}
			var orphan error
			if err := scan(tpcc.TNewOrder, wh, d, func(r table.Row) {
				if _, ok := olCnt[r[2].(int64)]; !ok && orphan == nil {
					orphan = fmt.Errorf("new_order %d/%d/%d names no order", wh, d, r[2].(int64))
				}
			}); err != nil {
				return err
			}
			if orphan != nil {
				return orphan
			}
		}
		if wGrowth := wRow[3].(float64) - loadedWYTD; !approxEqual(wGrowth, dGrowth) {
			return fmt.Errorf("warehouse %d: W_YTD grew by %.4f, its districts' D_YTD by %.4f", wh, wGrowth, dGrowth)
		}
	}
	if placed != w.r.newOrders {
		return fmt.Errorf("clients saw %d NewOrders commit, D_NEXT_O_ID advanced by %d", w.r.newOrders, placed)
	}
	return nil
}

// checkRecordCounts compares the master's per-partition record count with a
// snapshot scan of every partitioned table.
func (w *world) checkRecordCounts(p *sim.Proc) error {
	s := w.c.Master.Begin(p, cc.SnapshotIsolation, w.c.Nodes[0])
	defer s.Abort(p)
	for _, tbl := range tpcc.PartitionedTables() {
		want, err := w.c.Master.RecordCount(p, tbl)
		if err != nil {
			return fmt.Errorf("%s: %w", tbl, err)
		}
		got := 0
		if err := s.Scan(p, tbl, nil, nil, func(_, _ []byte) bool { got++; return true }); err != nil {
			return fmt.Errorf("%s scan: %w", tbl, err)
		}
		if got != want {
			return fmt.Errorf("%s: master counts %d records, a snapshot scan %d", tbl, want, got)
		}
	}
	return nil
}

// checkMovedRanges verifies that every moved key range now routes to its
// target node, with no migration left half-done.
func (w *world) checkMovedRanges() error {
	for _, tbl := range tpcc.PartitionedTables() {
		tm, err := w.c.Master.Table(tbl)
		if err != nil {
			return err
		}
		for _, mv := range movedRanges(warehouses) {
			covered := 0
			for _, e := range tm.Entries() {
				if !overlaps(e.Low, e.High, mv.lo, mv.hi) {
					continue
				}
				covered++
				if e.Owner.ID != mv.dst || e.OldPart != nil {
					return fmt.Errorf("%s: range [%x, %x) routes to node %d (old part %v), want node %d",
						tbl, e.Low, e.High, e.Owner.ID, e.OldPart != nil, mv.dst)
				}
			}
			if covered == 0 {
				return fmt.Errorf("%s: no range entry covers a moved range", tbl)
			}
		}
	}
	return nil
}

// overlaps reports whether [lo1, hi1) and [lo2, hi2) intersect; nil bounds
// are unbounded.
func overlaps(lo1, hi1, lo2, hi2 []byte) bool {
	if hi1 != nil && lo2 != nil && bytes.Compare(hi1, lo2) <= 0 {
		return false
	}
	if hi2 != nil && lo1 != nil && bytes.Compare(hi2, lo1) <= 0 {
		return false
	}
	return true
}

// checkFollowerQuery runs the analytics aggregate once through follower
// reads and once over the owners' partitions, in one transaction (hence one
// snapshot), and requires identical groups.
func (w *world) checkFollowerQuery(p *sim.Proc) error {
	c := w.c
	c.DrainShipQueues(p)
	home := c.Nodes[2]
	sess := c.Master.Begin(p, cc.SnapshotIsolation, home)
	defer sess.Abort(p)
	sess.PreferFollower = true
	agg := func(child exec.Operator, sumCol int) ([]table.Row, error) {
		return exec.Collect(p, &exec.GroupAgg{Child: child, Node: home.HW,
			GroupCol: 0, SumCol: sumCol, CPUPerRow: analyticsCPUPerRow, Vector: analyticsVector})
	}
	_, _, before, _ := c.ReplicationStats()
	viaFollowers, err := agg(&chbench.SessionScan{Sess: sess, Table: tpcc.TStock,
		Schema: w.dep.Schemas[tpcc.TStock], Vector: analyticsVector}, 3)
	if err != nil {
		return err
	}
	if _, _, after, _ := c.ReplicationStats(); after == before {
		return errors.New("the follower-read query was served by no follower")
	}
	ex, err := c.Master.ParallelScan(sess.Txn, tpcc.TStock, home, analyticsVector,
		func(scan exec.Operator, owner *cluster.DataNode) exec.Operator {
			return &exec.Project{Child: scan, Node: owner.HW, Cols: []int{0, 3}, CPUPerRow: analyticsCPUPerRow}
		})
	if err != nil {
		return err
	}
	viaOwners, err := agg(ex, 1)
	if err != nil {
		return err
	}
	a, b := formatRows(viaFollowers), formatRows(viaOwners)
	if a != b {
		return fmt.Errorf("follower reads gave %s, owners %s", a, b)
	}
	if len(viaFollowers) != warehouses {
		return fmt.Errorf("aggregate has %d groups, want %d", len(viaFollowers), warehouses)
	}
	return nil
}

func formatRows(rows []table.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r...)
	}
	sort.Strings(out)
	return strings.Join(out, "; ")
}
