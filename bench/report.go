package main

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// observed is what a traced run saw of the whole system, next to the
// layer-alone runs: the inputs of the per-layer metrics that are not a
// layer timed alone.
type observed struct {
	e2eNSPerRec        float64 // untraced pass: wall ns per delivered record
	overheadFrac       float64 // traced vs untraced end-to-end throughput
	serving            servingDelta
	queueMax           float64
	rssKBPerUser       float64
	serverCPUUSPerRec  float64
	gcCycles           float64
	gcPauseMS          float64
	sendNS             []float64 // sampled Stream.Send durations
	loadgenCPUUSPerRec float64
	lateNS             []float64 // generator lateness against its schedule
	journal            bool      // the workload's server journals
}

// layerReport sets every per-layer metric. The serving stack's cost per
// record splits as
//
//	e2e = stream_protect + gateway_self [+ journal] + transport_self
//	      + 2·(encode + decode) + residual
//
// where the last three terms are defined so the sum is exact: what the
// layers alone do not account for is reported as the residual, never
// dropped.
func layerReport(rep *report, lay *layerOut, o observed) {
	set := func(name string, v float64) { rep.set(layerDefs, name, v) }
	journalNS := lay.journalGatewayNS - lay.gatewayNS
	codecNS := 2 * (lay.encodeNS + lay.decodeNS)
	onPath := 0.0
	if o.journal {
		onPath = journalNS
	}
	transportSelf := lay.loopbackNS - lay.gatewayNS - onPath - codecNS
	residual := o.e2eNSPerRec - lay.loopbackNS

	set("trace.encode_ns_per_rec", lay.encodeNS)
	set("trace.decode_ns_per_rec", lay.decodeNS)
	set("trace.decode_allocs_per_rec", lay.decodeAllocs)
	set("trace.wire_bytes_per_rec", lay.wireBytes)
	set("lppm.stream_protect_ns_per_rec", lay.streamProtectNS)
	set("lppm.batch_protect_ns_per_rec", lay.batchProtectNS)
	set("service.gateway_ns_per_rec", lay.gatewayNS)
	set("service.gateway_self_ns_per_rec", lay.gatewayNS-lay.streamProtectNS)
	set("service.records_per_window", ratio(o.serving.emitted, o.serving.flushes))
	set("service.queue_depth_max", o.queueMax)
	set("service.rss_kb_per_user", o.rssKBPerUser)
	for st := obs.StageIngest; st <= obs.StageWrite; st++ {
		set("stage."+st.String()+"_mean_ms", ratio(o.serving.stageSumNS[st], o.serving.stageCount[st])/1e6)
	}
	set("journal.ns_per_rec", journalNS)
	set("journal.bytes_per_rec", lay.journalBytes)
	set("journal.appends_per_window", lay.journalAppendsPerWnd)
	set("journal.recover_s", lay.recoverS)
	set("server.loopback_ns_per_rec", lay.loopbackNS)
	set("server.transport_self_ns_per_rec", transportSelf)
	set("server.residual_ns_per_rec", residual)
	set("server.cpu_us_per_rec", o.serverCPUUSPerRec)
	set("server.gc_cycles", o.gcCycles)
	set("server.gc_pause_ms", o.gcPauseMS)
	set("server.failed_windows", o.serving.failedWindows)
	set("client.send_block_p99_ms", quantile(sortedCopy(o.sendNS), 0.99)/1e6)
	set("loadgen.cpu_us_per_rec", o.loadgenCPUUSPerRec)
	set("loadgen.late_p99_ms", quantile(sortedCopy(o.lateNS), 0.99)/1e6)
	c := lay.conf
	set("eval.sweep_s", c.sweepS)
	set("eval.items_per_s", c.itemsPerS)
	set("metrics.prepare_ms", c.prepareMS)
	set("metrics.poi_retrieval_ns_per_rec", c.poiNSPerRec)
	set("metrics.area_coverage_ns_per_rec", c.areaNSPerRec)
	set("core.properties_ms", c.propertiesMS)
	set("model.fit_ms", c.fitMS)
	set("core.residual_ms", c.residualMS)
	set("bench.e2e_ns_per_rec", o.e2eNSPerRec)
	set("bench.trace_overhead_frac", o.overheadFrac)

	rep.notef("layers alone on %d records of this workload (median of %d runs each)", lay.records, aloneRepeats)
	jterm := ""
	if o.journal {
		jterm = fmt.Sprintf(" + journal %.1f", journalNS)
	}
	rep.notef("e2e %.1f ns/rec = stream_protect %.1f + gateway_self %.1f%s + transport_self %.1f + 2·(encode %.1f + decode %.1f) + residual %.1f",
		o.e2eNSPerRec, lay.streamProtectNS, lay.gatewayNS-lay.streamProtectNS, jterm,
		transportSelf, lay.encodeNS, lay.decodeNS, residual)
	rep.notef("configuration layers on %d users, %d records: Analyze %.1f ms = sweep %.1f + properties %.1f + fit %.3f + residual %.1f",
		c.users, c.records, c.analyzeMS, c.sweepS*1e3, c.propertiesMS, c.fitMS, c.residualMS)
	if c.note != "" {
		rep.notef("  %s", c.note)
	}
	rep.notef("client.send_block: %d sampled sends; loadgen lateness: %d samples", len(o.sendNS), len(o.lateNS))
}

// ratio is a/b, or 0 when b is 0 (nothing was observed).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finite replaces NaN and ±Inf — a quantile of no samples — with 0, which
// JSON can carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
