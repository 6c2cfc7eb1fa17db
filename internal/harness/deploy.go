// Cluster bring-up shared by every runner: one simulated network, the shard
// plan, and the [shard][member] replica matrix built by one function. The
// deployment is also the chaos resolver: it answers leader, relay and
// placement queries from live replica state and, when durable, reboots
// nodes from their surviving storage.
package harness

import (
	"time"

	"pigpaxos/internal/chaos"
	"pigpaxos/internal/config"
	"pigpaxos/internal/des"
	"pigpaxos/internal/epaxos"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/netsim"
	"pigpaxos/internal/node"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/pigpaxos"
	"pigpaxos/internal/shard"
	"pigpaxos/internal/wal"
	"pigpaxos/internal/wire"
)

// replica is the common surface of the three protocol replicas.
type replica interface {
	Start()
	OnMessage(from ids.ID, m wire.Msg)
}

// trampoline lets a node's wire handler outlive the replica behind it: a
// reboot swaps h for the fresh incarnation's.
type trampoline struct{ h func(from ids.ID, m wire.Msg) }

func (t *trampoline) OnMessage(from ids.ID, m wire.Msg) { t.h(from, m) }

// deployment is one simulated cluster brought up from ScenarioOptions.
type deployment struct {
	o    *ScenarioOptions
	sim  *des.Sim
	cc   config.Cluster
	net  *netsim.Network
	plan shard.Map

	// Indexed [shard][member]. storages is nil on volatile deployments.
	replicas []map[ids.ID]replica
	tramps   []map[ids.ID]*trampoline
	storages []map[ids.ID]*wal.MemStorage
	// handlers is each node's wire handler: the shard-0 trampoline when
	// unsharded, a shard.Dispatcher over the node's trampolines otherwise.
	handlers map[ids.ID]netsim.Handler
}

// deploy brings up the cluster o describes. With one shard every replica
// sits directly on its node's endpoint and speaks the bare protocol; with
// more, each node's replicas run under shard.Wrap contexts behind one
// shard.Dispatcher, so their traffic rides Sharded envelopes and the shards
// share the node's virtual CPU. The envelope adds bytes the cost model
// charges for, which is why S=1 does not use it.
func deploy(o *ScenarioOptions) *deployment {
	if o.Shards > 1 && o.Protocol == EPaxos {
		panic("harness: sharded runs support Paxos and PigPaxos")
	}
	d := &deployment{o: o, sim: des.New(o.Seed), cc: o.cluster()}
	d.net = netsim.New(d.sim, d.cc, o.Net)
	d.plan = shard.Plan(d.cc, o.Shards, 0)
	s := d.plan.NumShards()
	d.replicas = make([]map[ids.ID]replica, s)
	d.tramps = make([]map[ids.ID]*trampoline, s)
	for k := range d.replicas {
		d.replicas[k] = make(map[ids.ID]replica)
		d.tramps[k] = make(map[ids.ID]*trampoline)
	}
	// EPaxos has no durable path: restart actions against it skip.
	if o.Durable && o.Protocol != EPaxos {
		d.storages = make([]map[ids.ID]*wal.MemStorage, s)
		for k := range d.storages {
			d.storages[k] = make(map[ids.ID]*wal.MemStorage)
		}
	}
	d.each(func(k int, id ids.ID, _ replica) {
		d.tramps[k][id] = &trampoline{}
		if d.storages != nil {
			st := wal.NewMem()
			st.SetSyncCost(o.SyncCost)
			d.storages[k][id] = st
		}
	})
	d.handlers = make(map[ids.ID]netsim.Handler, len(d.cc.Nodes))
	for _, id := range d.cc.Nodes {
		var h netsim.Handler = d.tramps[0][id]
		if s > 1 {
			disp := shard.NewDispatcher(s)
			for k, tramps := range d.tramps {
				if tr := tramps[id]; tr != nil {
					disp.Register(k, tr)
				}
			}
			h = disp
		}
		d.handlers[id] = h
		d.net.Register(id, h, false)
	}
	d.each(func(k int, id ids.ID, _ replica) { d.install(k, id) })
	return d
}

// build constructs shard k's replica on member id. It runs once per replica
// at boot and again on every chaos Restart — a rebuilt replica gets the
// node's surviving storage and nothing else, so recovery is honest.
func (d *deployment) build(k int, id ids.ID) replica {
	o := d.o
	var ctx node.Context = d.net.Endpoint(id)
	if d.plan.NumShards() > 1 {
		ctx = shard.Wrap(ctx, k)
	}
	desc := d.plan.Shards[k]
	cc := d.cc
	cc.Nodes = desc.Members
	if o.Protocol == EPaxos {
		cfg := epaxos.Config{Cluster: cc, ID: id}
		if o.MutEPaxos != nil {
			o.MutEPaxos(&cfg)
		}
		return epaxos.New(ctx, cfg)
	}
	base := paxos.Config{
		Cluster: cc, ID: id, InitialLeader: desc.Leader,
		ElectionTimeout: o.ElectionTimeout,
	}
	o.paxosBatching(&base)
	if d.storages != nil {
		base.Storage = d.storages[k][id]
		base.SnapshotEvery = o.SnapshotEvery
	}
	if o.Protocol == PigPaxos {
		cfg := pigpaxos.Config{Paxos: base, NumGroups: o.NumGroups}
		if o.ZoneGroups {
			cfg.Strategy = pigpaxos.GroupByZone
		}
		if o.MutPig != nil {
			o.MutPig(&cfg)
		}
		return pigpaxos.New(ctx, cfg)
	}
	cfg := base
	// Where followers fail over (elections armed), plain Paxos also
	// re-broadcasts unanswered slots to mask schedule-injected loss;
	// PigPaxos has its relay and leader re-fan-out timeouts for that.
	if o.ElectionTimeout > 0 {
		cfg.RetryTimeout = 100 * time.Millisecond
	}
	if o.MutPaxos != nil {
		o.MutPaxos(&cfg)
	}
	return paxos.New(ctx, cfg, nil)
}

// install builds shard k's replica on id and points its trampoline at it.
func (d *deployment) install(k int, id ids.ID) replica {
	rep := d.build(k, id)
	d.tramps[k][id].h = rep.OnMessage
	d.replicas[k][id] = rep
	return rep
}

// start schedules every replica's start at t=0 in (shard, membership)
// order — map iteration would leak scheduling nondeterminism.
func (d *deployment) start() {
	d.sim.Schedule(0, func() {
		for k, desc := range d.plan.Shards {
			for _, id := range desc.Members {
				d.replicas[k][id].Start()
			}
		}
	})
}

// each calls f on every replica in (shard, membership) order.
func (d *deployment) each(f func(k int, id ids.ID, rep replica)) {
	for k, desc := range d.plan.Shards {
		for _, id := range desc.Members {
			f(k, id, d.replicas[k][id])
		}
	}
}

// core returns the decision core of a Paxos-family replica, nil for EPaxos.
func core(rep replica) *paxos.Replica {
	switch r := rep.(type) {
	case *paxos.Replica:
		return r
	case *pigpaxos.Replica:
		return r.Core()
	}
	return nil
}

func storeOf(rep replica) *kvstore.Store {
	if c := core(rep); c != nil {
		return c.Store()
	}
	return rep.(*epaxos.Replica).Store()
}

// shardConverged reports whether shard k's members ended bit-identical.
func (d *deployment) shardConverged(k int) bool {
	members := d.plan.Shards[k].Members
	first := storeOf(d.replicas[k][members[0]])
	for _, id := range members[1:] {
		st := storeOf(d.replicas[k][id])
		if st.Checksum() != first.Checksum() || st.Applied() != first.Applied() {
			return false
		}
	}
	return true
}

// settled reports every shard converged and no EPaxos instance left
// unexecuted.
func (d *deployment) settled() bool {
	ok := true
	d.each(func(k int, id ids.ID, rep replica) {
		if er, isE := rep.(*epaxos.Replica); isE && er.Unexecuted() > 0 {
			ok = false
		}
	})
	for k := range d.plan.Shards {
		ok = ok && d.shardConverged(k)
	}
	return ok
}

// drain runs the sim past windowEnd until done reports every script
// finished or the Drain budget is spent, in slices so a finished run stops
// early. A converge tail follows: heartbeat watermarks, catch-up replies and
// EPaxos commit-floor anti-entropy flush. Runs already converged after the
// fixed 500ms stop there; stragglers get extra slices while the recovery
// machinery — whose WAN-scale periods exceed half a second — finishes
// teaching them, bounded by an additional budget.
func (d *deployment) drain(windowEnd time.Duration, done func() bool) {
	sim := d.sim
	drainEnd := windowEnd + d.o.Drain
	for sim.Now() < drainEnd && !done() {
		sim.Run(min(sim.Now()+100*time.Millisecond, drainEnd))
	}
	sim.Run(sim.Now() + 500*time.Millisecond)
	for end := sim.Now() + 4*time.Second; sim.Now() < end && !d.settled(); {
		sim.Run(sim.Now() + 250*time.Millisecond)
	}
}

// resolver returns the deployment as the chaos resolver. A volatile
// deployment hides Reboot and SetDiskSync, so the injector skips restart and
// disk actions instead of crashing a node it could never bring back.
func (d *deployment) resolver() chaos.Resolver {
	if d.storages != nil {
		return d
	}
	return struct {
		chaos.Resolver
		chaos.Placer
		chaos.ShardResolver
		chaos.ShardPlacer
	}{d, d, d, d}
}

// ShardLeader implements chaos.ShardResolver: the first member (membership
// order) whose shard-k replica believes it leads. EPaxos is leaderless —
// every replica is command leader for its own clients — so a leader-targeted
// fault resolves to the first live replica: a deterministic "crash a command
// leader mid-flight", which is exactly what Explicit Prepare recovery must
// absorb.
func (d *deployment) ShardLeader(k int) ids.ID {
	if k < 0 || k >= d.plan.NumShards() {
		return 0
	}
	for _, id := range d.plan.Shards[k].Members {
		if c := core(d.replicas[k][id]); c != nil {
			if c.IsLeader() {
				return id
			}
		} else if !d.net.Crashed(id) {
			return id
		}
	}
	return 0
}

// Leader implements chaos.Resolver as shard 0's leader.
func (d *deployment) Leader() ids.ID { return d.ShardLeader(0) }

// Relay implements chaos.Resolver: the relay shard 0's PigPaxos leader last
// drew for group g, falling back to the group's first member before any
// fan-out has happened.
func (d *deployment) Relay(g int) ids.ID {
	leader := d.Leader()
	if leader.IsZero() {
		return 0
	}
	pr, ok := d.replicas[0][leader].(*pigpaxos.Replica)
	if !ok {
		return 0
	}
	if relay := pr.LastRelay(g); !relay.IsZero() {
		return relay
	}
	layout := pr.Layout()
	if g >= 0 && g < layout.NumGroups() && len(layout.Groups[g]) > 0 {
		return layout.Groups[g][0]
	}
	return 0
}

// campaign makes the first live Paxos-family member of shard k that eligible
// accepts bid for that shard's leadership. EPaxos is leaderless, so
// placement flips resolve to nobody and are skipped.
func (d *deployment) campaign(k int, eligible func(ids.ID) bool) ids.ID {
	for _, id := range d.plan.Shards[k].Members {
		if d.net.Crashed(id) || !eligible(id) {
			continue
		}
		if c := core(d.replicas[k][id]); c != nil {
			c.Campaign()
			return id
		}
	}
	return 0
}

// CampaignFrom implements chaos.Placer: the first live shard-0 replica in
// the zone (membership order) bids for leadership.
func (d *deployment) CampaignFrom(zone int) ids.ID {
	return d.campaign(0, func(id ids.ID) bool { return d.cc.ZoneOf(id) == zone })
}

// CampaignShardFrom implements chaos.ShardPlacer: the first live non-leader
// member of shard k in the zone (zone 0 = any) campaigns for that shard's
// leadership.
func (d *deployment) CampaignShardFrom(k, zone int) ids.ID {
	if k < 0 || k >= d.plan.NumShards() {
		return 0
	}
	cur := d.ShardLeader(k)
	return d.campaign(k, func(id ids.ID) bool {
		return id != cur && (zone == 0 || d.cc.ZoneOf(id) == zone)
	})
}

// Reboot implements chaos.Rebooter: power-loss semantics (unsynced journal
// appends dropped, optionally a torn final frame) on every shard the node
// hosts, then fresh replicas recovering from snapshot + WAL tail take over
// the node's endpoint.
func (d *deployment) Reboot(id ids.ID, torn bool) bool {
	hosted := d.plan.ShardsOn(id)
	if len(hosted) == 0 {
		return false
	}
	for _, k := range hosted {
		st := d.storages[k][id]
		st.Crash() // whatever was never fsynced is gone
		if torn {
			st.TearTail()
		}
	}
	// Epoch bump first: timers the old incarnation armed must never fire
	// into the new one, and the fresh replicas' Start() timers must.
	d.net.Reboot(id, d.handlers[id])
	for _, k := range hosted {
		d.install(k, id).Start()
	}
	return true
}

// SetDiskSync implements chaos.DiskFaulter on every journal the node keeps.
// lat <= 0 restores the scenario's baseline fsync cost.
func (d *deployment) SetDiskSync(id ids.ID, lat time.Duration) {
	if lat <= 0 {
		lat = d.o.SyncCost
	}
	for _, k := range d.plan.ShardsOn(id) {
		d.storages[k][id].SetSyncCost(lat)
	}
}

// request wraps cmd for shard k: tagged on a sharded deployment, bare on an
// unsharded one, whose replicas sit directly on their endpoints.
func request(plan shard.Map, k int, cmd kvstore.Command) wire.Msg {
	if plan.NumShards() == 1 {
		return wire.Request{Cmd: cmd}
	}
	return wire.Sharded{Shard: uint16(k), Inner: wire.Request{Cmd: cmd}}
}

// unwrap strips a shard envelope, reporting the shard it named (0 for a
// bare message). The simulator delivers messages as sent, so envelopes
// arrive by value; only the pooled wire decoder boxes them as pointers.
func unwrap(m wire.Msg) (wire.Msg, int) {
	if sm, ok := m.(wire.Sharded); ok {
		return sm.Inner, int(sm.Shard)
	}
	return m, 0
}
