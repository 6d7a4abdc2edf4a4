package main

import (
	"wattdb/internal/buffer"
	"wattdb/internal/cluster"
	"wattdb/internal/hw"
	"wattdb/internal/table"
)

// counters is one reading of every engine counter the benchmark reports,
// summed over the cluster's nodes. Two readings bracket the measured
// window; reading a counter never schedules an event or charges sim time.
type counters struct {
	dataReads, dataWrites int64
	dataBusy              float64 // disk-arm busy integral, s
	logWrites, logBytes   int64
	logBusy               float64
	netBytes, netMsgs     int64
	cpuBusy               float64 // core-seconds
	cpuCapacity           float64 // cores of the powered nodes
	energy                float64 // J, from the power meter

	buf buffer.Stats
	// parts holds each partition's stats; a partition dropped during the
	// window keeps its last reading through the pointer.
	parts map[*table.Partition]table.Stats

	walTail     uint64
	walRetained int64

	followerReads int
}

// snapshot reads every counter. prev, when non-nil, is the window-start
// reading: partitions it saw are read again even if no node lists them now.
func snapshot(c *cluster.Cluster, prev *counters) counters {
	k := counters{parts: map[*table.Partition]table.Stats{}}
	for _, n := range c.Nodes {
		for _, d := range n.HW.DataDisks() {
			r, w := d.Ops()
			k.dataReads += r
			k.dataWrites += w
			k.dataBusy += d.BusyIntegral()
		}
		ld := n.HW.LogDisk()
		_, w := ld.Ops()
		_, wb := ld.Bytes()
		k.logWrites += w
		k.logBytes += wb
		k.logBusy += ld.BusyIntegral()
		k.netBytes += c.Net.BytesSent(n.ID)
		k.netMsgs += c.Net.Messages(n.ID)
		k.cpuBusy += n.HW.CPU.BusyIntegral()
		if n.HW.State() != hw.PowerOff {
			k.cpuCapacity += float64(n.HW.CPU.Capacity())
		}

		s := n.Pool.Stats()
		k.buf.Hits += s.Hits
		k.buf.Misses += s.Misses
		k.buf.Evictions += s.Evictions
		k.buf.Flushes += s.Flushes
		k.buf.LatchWaits += s.LatchWaits
		k.buf.RemoteHits += s.RemoteHits

		for _, pt := range n.Parts {
			k.parts[pt] = pt.Stats()
		}
		k.walTail += n.Log.TailLSN()
		k.walRetained += n.Log.RetainedBytes()
	}
	if prev != nil {
		for pt := range prev.parts {
			if _, ok := k.parts[pt]; !ok {
				k.parts[pt] = pt.Stats()
			}
		}
	}
	k.energy = c.Meter.EnergyJoules()
	_, _, k.followerReads, _ = c.ReplicationStats()
	return k
}

// tableDelta sums partition activity between two readings.
func tableDelta(a, b counters) table.Stats {
	var d table.Stats
	for pt, e := range b.parts {
		s := a.parts[pt]
		d.Reads += e.Reads - s.Reads
		d.Writes += e.Writes - s.Writes
		d.ScannedTuples += e.ScannedTuples - s.ScannedTuples
		d.Commits += e.Commits - s.Commits
		d.Aborts += e.Aborts - s.Aborts
	}
	return d
}
