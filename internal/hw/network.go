package hw

import (
	"time"

	"wattdb/internal/sim"
)

// Network models the cluster interconnect: one switch with a dedicated
// full-duplex link per node. A transfer serialises on the sender's uplink
// for its transmission time and then pays one propagation/stack latency.
// Switch fabric contention is not modelled (the paper's switch is
// non-blocking for 10 GbE-class aggregate traffic).
type Network struct {
	env *sim.Env
	cal Calibration

	// extraDelay is an injected additional one-way latency applied to every
	// transfer while set (fault injection: congestion spike, flaky switch).
	extraDelay time.Duration

	links map[int]*link
}

type link struct {
	tx        *sim.Resource
	bytesSent int64
	messages  int64
}

// NewNetwork returns an empty network; nodes attach via AddNode.
func NewNetwork(env *sim.Env, cal Calibration) *Network {
	return &Network{env: env, cal: cal, links: make(map[int]*link)}
}

// AddNode provisions a link for the node with the given ID.
func (n *Network) AddNode(nodeID int) {
	if _, ok := n.links[nodeID]; !ok {
		n.links[nodeID] = &link{tx: sim.NewResource(n.env, 1)}
	}
}

// Transfer ships bytes from node from to node to, blocking p for the queueing
// plus wire time. Transfers between a node and itself are free (records move
// through main memory, Sect. 3.3).
func (n *Network) Transfer(p *sim.Proc, from, to int, bytes int64) {
	if from == to {
		return
	}
	defer p.Meter(sim.CatNetworkIO)()
	l, ok := n.links[from]
	if !ok {
		panic("hw: transfer from unknown node")
	}
	if _, ok := n.links[to]; !ok {
		panic("hw: transfer to unknown node")
	}
	wire := time.Duration(float64(bytes+int64(n.cal.NetFrameSize)) / n.cal.NetBandwidth * float64(time.Second))
	l.tx.Use(p, 1, func() { p.Sleep(wire) })
	l.bytesSent += bytes
	l.messages++
	p.Sleep(n.cal.NetLatency + n.extraDelay)
}

// SetExtraDelay injects an additional one-way latency on every transfer
// (0 clears the fault). Used by the chaos harness for delay spikes.
func (n *Network) SetExtraDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	n.extraDelay = d
}

// BytesSent returns the cumulative bytes sent by the node's uplink.
func (n *Network) BytesSent(nodeID int) int64 {
	if l, ok := n.links[nodeID]; ok {
		return l.bytesSent
	}
	return 0
}

// Messages returns the cumulative message count sent by the node.
func (n *Network) Messages(nodeID int) int64 {
	if l, ok := n.links[nodeID]; ok {
		return l.messages
	}
	return 0
}
