package serve

import (
	"math"
	"strconv"

	"mlink/internal/engine"
)

// AppendMetrics appends the engine's metrics block (and, when hub is
// non-nil, the stream hub's counters) in the Prometheus text exposition
// format. Like the JSON encoders it is pure append — the /metrics handler
// feeds it a reused engine.Metrics filled by MetricsInto and a reused output
// buffer, so a scrape allocates nothing in steady state.
func AppendMetrics(b []byte, m *engine.Metrics, hub *Hub) []byte {
	b = appendMetric(b, "mlink_links", "gauge", "Registered links in the fleet.", float64(m.Links))
	b = appendMetric(b, "mlink_windows_scored_total", "counter", "Monitoring windows scored across the fleet.", float64(m.WindowsScored))
	b = appendMetric(b, "mlink_frames_seen_total", "counter", "CSI frames ingested across the fleet.", float64(m.FramesSeen))
	b = appendMetric(b, "mlink_scores_per_second", "gauge", "Windows scored per second of active run time.", m.ScoresPerSec)
	b = appendMetric(b, "mlink_steals_total", "counter", "Link migrations between scoring shards.", float64(m.Steals))
	b = appendMetric(b, "mlink_shard_parks_woken_total", "counter", "Idle shard parks ended by a wake-up.", float64(m.ParksWoken))
	b = appendMetric(b, "mlink_shard_parks_timed_out_total", "counter", "Idle shard parks ended by the safety-net timer.", float64(m.ParksTimedOut))

	b = appendHeader(b, "mlink_shard_windows_total", "counter", "Windows scored per shard.")
	for i := range m.Shards {
		b = appendShardSample(b, "mlink_shard_windows_total", i, float64(m.Shards[i].WindowsScored))
	}
	b = appendHeader(b, "mlink_shard_utilization", "gauge", "Fraction of run time each shard spent scoring.")
	for i := range m.Shards {
		b = appendShardSample(b, "mlink_shard_utilization", i, m.Shards[i].Utilization)
	}

	b = appendHeader(b, "mlink_link_present", "gauge", "Latest per-link presence verdict (1 = present).")
	for i := range m.PerLink {
		b = appendLinkSample(b, "mlink_link_present", m.PerLink[i].ID, bool01(m.PerLink[i].Present))
	}
	b = appendHeader(b, "mlink_link_score", "gauge", "Latest per-link window score.")
	for i := range m.PerLink {
		b = appendLinkSample(b, "mlink_link_score", m.PerLink[i].ID, m.PerLink[i].LastScore)
	}
	b = appendHeader(b, "mlink_link_threshold", "gauge", "Current per-link decision threshold.")
	for i := range m.PerLink {
		b = appendLinkSample(b, "mlink_link_threshold", m.PerLink[i].ID, m.PerLink[i].Threshold)
	}
	b = appendHeader(b, "mlink_link_windows_total", "counter", "Windows scored per link.")
	for i := range m.PerLink {
		b = appendLinkSample(b, "mlink_link_windows_total", m.PerLink[i].ID, float64(m.PerLink[i].WindowsScored))
	}
	b = appendHeader(b, "mlink_link_ns_per_window", "gauge", "Smoothed per-link scoring cost in nanoseconds per window.")
	for i := range m.PerLink {
		b = appendLinkSample(b, "mlink_link_ns_per_window", m.PerLink[i].ID, m.PerLink[i].NsPerWindowEWMA)
	}
	b = appendHeader(b, "mlink_link_source_drops_total", "counter", "Frames shed by each link's ingest ring.")
	for i := range m.PerLink {
		b = appendLinkSample(b, "mlink_link_source_drops_total", m.PerLink[i].ID, float64(m.PerLink[i].SourceDrops))
	}
	b = appendHeader(b, "mlink_link_reconnects_total", "counter", "Successful source redials per link.")
	for i := range m.PerLink {
		b = appendLinkSample(b, "mlink_link_reconnects_total", m.PerLink[i].ID, float64(m.PerLink[i].Reconnects))
	}

	if hub != nil {
		b = appendMetric(b, "mlink_stream_subscribers", "gauge", "Active verdict stream subscriptions.", float64(hub.Subscribers()))
		b = appendMetric(b, "mlink_stream_rounds_total", "counter", "Fusion rounds serialized for streaming.", float64(hub.Encodes()))
		b = appendMetric(b, "mlink_stream_dropped_total", "counter", "Stream rounds lost to latest-wins coalescing.", float64(hub.Dropped()))
		b = appendMetric(b, "mlink_stream_shed_total", "counter", "Subscriptions shed for sustained lag.", float64(hub.Shed()))
	}
	return b
}

func bool01(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

func appendHeader(b []byte, name, typ, help string) []byte {
	b = append(b, "# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, help...)
	b = append(b, "\n# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, typ...)
	return append(b, '\n')
}

func appendMetric(b []byte, name, typ, help string, v float64) []byte {
	b = appendHeader(b, name, typ, help)
	b = append(b, name...)
	b = append(b, ' ')
	b = appendPromValue(b, v)
	return append(b, '\n')
}

func appendShardSample(b []byte, name string, shard int, v float64) []byte {
	b = append(b, name...)
	b = append(b, `{shard="`...)
	b = strconv.AppendInt(b, int64(shard), 10)
	b = append(b, `"} `...)
	b = appendPromValue(b, v)
	return append(b, '\n')
}

func appendLinkSample(b []byte, name, link string, v float64) []byte {
	b = append(b, name...)
	b = append(b, `{link="`...)
	b = appendPromLabel(b, link)
	b = append(b, `"} `...)
	b = appendPromValue(b, v)
	return append(b, '\n')
}

// appendPromLabel escapes a label value per the text exposition format
// (backslash, quote and newline).
func appendPromLabel(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\', '"':
			b = append(b, '\\', c)
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, c)
		}
	}
	return b
}

// appendPromValue formats a sample value; Prometheus accepts NaN and ±Inf
// spelled out.
func appendPromValue(b []byte, v float64) []byte {
	switch {
	case math.IsNaN(v):
		return append(b, "NaN"...)
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
