package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"scouts/internal/metrics"
	"scouts/internal/ml/cpd"
	"scouts/internal/monitoring"
	"scouts/internal/topology"
)

// Extraction is the result of running the configuration's component
// extractors and exclusion rules over an incident's text (§5.1, §5.3).
type Extraction struct {
	// ByType holds the validated components per component type.
	ByType map[topology.ComponentType][]string
	// Devices are the device-level components (VMs, servers, switches) —
	// the set that decides narrow vs broad scope for CPD+ (§5.2.2).
	Devices []string
	// Broad is true when the incident implicates clusters or DCs but no
	// small device set.
	Broad bool
	// Excluded is true when a TITLE/BODY exclusion rule fired: the
	// incident is explicitly out of the team's scope.
	Excluded bool
	// Empty is true when no component could be extracted; such incidents
	// fall back to the legacy routing process (§5.3).
	Empty bool
}

// All returns every extracted component.
func (e Extraction) All() []string {
	var out []string
	for _, typ := range typeOrder {
		out = append(out, e.ByType[typ]...)
	}
	return out
}

// typeOrder fixes the canonical component-type ordering of the feature
// layout.
var typeOrder = []topology.ComponentType{
	topology.TypeVM, topology.TypeServer, topology.TypeSwitch,
	topology.TypeCluster, topology.TypeDC,
}

// featureGroup is one column block of the feature vector: a dataset, or
// several datasets merged by class tag (§5.1 "the automatic combination of
// related data sets").
type featureGroup struct {
	name     string
	datasets []monitoring.Descriptor
	isEvent  bool
}

func (g featureGroup) coversType(t topology.ComponentType) bool {
	for _, d := range g.datasets {
		if d.CoversType(t) {
			return true
		}
	}
	return false
}

// coversScope extends coversType for aggregate component types: cluster
// features combine "all data with the same cluster tag" (§5.2), i.e. the
// data of the cluster's switches and servers as well as cluster-keyed
// datasets; DC features aggregate the cluster-granularity data of the DC's
// clusters.
func (g featureGroup) coversScope(t topology.ComponentType) bool {
	switch t {
	case topology.TypeCluster:
		return g.coversType(topology.TypeCluster) ||
			g.coversType(topology.TypeSwitch) || g.coversType(topology.TypeServer)
	case topology.TypeDC:
		return g.coversType(topology.TypeDC) || g.coversType(topology.TypeCluster)
	default:
		return g.coversType(t)
	}
}

// FeatureBuilder turns (incident, monitoring data) into the fixed-length
// feature vector of §5.2 and into CPD+ inputs.
type FeatureBuilder struct {
	cfg    *Config
	topo   *topology.Topology
	source monitoring.DataSource
	// stats is the aggregate-query view of source: the source itself when
	// it offers monitoring.StatsSource (the Store, the cloud simulator), a
	// window-materializing adapter otherwise. Featurization pulls baseline
	// statistics and event counts through it so the hot path stops copying
	// raw windows it only ever reduced to count/mean/std.
	stats monitoring.StatsSource
	// health is the source's availability view when it has one (a chaos
	// wrapper, a circuit breaker), nil otherwise. Imputation prefers it
	// over registry presence: an outage hides data, not the dataset's
	// existence, so the feature layout survives the outage.
	health monitoring.HealthReporter

	groups []featureGroup
	types  []topology.ComponentType // component types present in the layout
	names  []string
	// slot maps (type, group, stat) to the vector index; built once.
	slotOf map[string]int
	// groupSlots lists the vector indices belonging to each group name,
	// used for mean imputation when a monitoring system disappears.
	groupSlots map[string][]int
	// merge pools the normalized-series scratch buffer FeaturizeInto
	// reduces each feature group through, so concurrent featurization does
	// not regrow one per (request, group).
	merge sync.Pool
}

// NewFeatureBuilder computes the feature layout from the configuration and
// the datasets the source advertises. The layout depends only on the
// dataset *registry* (names, types, class tags, coverage), so a Scout
// trained against one source can score against another with the same
// registry.
func NewFeatureBuilder(cfg *Config, topo *topology.Topology, source monitoring.DataSource) *FeatureBuilder {
	fb := &FeatureBuilder{
		cfg: cfg, topo: topo, source: source,
		stats:      monitoring.StatsSourceOf(source),
		health:     monitoring.HealthReporterOf(source),
		slotOf:     map[string]int{},
		groupSlots: map[string][]int{},
	}

	// Group datasets by class tag.
	byGroup := map[string][]monitoring.Descriptor{}
	for _, d := range source.Datasets() {
		if !cfg.UsesDataset(d.Name) {
			continue
		}
		class := d.Class
		if o := cfg.ClassOverride(d.Name); o != "" {
			class = o
		}
		key := d.Name
		if class != "" {
			key = "class:" + class
		}
		byGroup[key] = append(byGroup[key], d)
	}
	var keys []string
	for k := range byGroup {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ds := byGroup[k]
		name := strings.TrimPrefix(k, "class:")
		fb.groups = append(fb.groups, featureGroup{
			name:     name,
			datasets: ds,
			isEvent:  ds[0].Type == monitoring.Event,
		})
	}

	// Component types: those with an extractor AND any covering dataset.
	// The PhyNet Scout has no VM features because PhyNet monitors no VM
	// data (§5.2).
	for _, typ := range typeOrder {
		if _, ok := cfg.Extractors[typ]; !ok {
			continue
		}
		covered := false
		for _, g := range fb.groups {
			if g.coversScope(typ) {
				covered = true
				break
			}
		}
		if covered {
			fb.types = append(fb.types, typ)
		}
	}

	// Build the flat name layout.
	add := func(group, name string) {
		fb.slotOf[name] = len(fb.names)
		fb.names = append(fb.names, name)
		if group != "" {
			fb.groupSlots[group] = append(fb.groupSlots[group], len(fb.names)-1)
		}
	}
	for _, typ := range fb.types {
		for _, g := range fb.groups {
			if !g.coversScope(typ) {
				continue
			}
			if g.isEvent {
				add(g.name, fmt.Sprintf("%s.%s.count", typ, g.name))
				continue
			}
			for _, stat := range metrics.SummaryNames {
				add(g.name, fmt.Sprintf("%s.%s.%s", typ, g.name, stat))
			}
		}
		// The per-type component count (§5.2: it helps the model judge
		// whether a percentile shift is significant).
		add("", fmt.Sprintf("%s.ncomponents", typ))
	}
	return fb
}

// FeatureNames returns the layout's feature names.
func (fb *FeatureBuilder) FeatureNames() []string { return fb.names }

// Groups returns the feature-group names (one per dataset or class).
func (fb *FeatureBuilder) Groups() []string {
	out := make([]string, len(fb.groups))
	for i, g := range fb.groups {
		out[i] = g.name
	}
	return out
}

// GroupSlots returns the vector indices owned by a feature group.
func (fb *FeatureBuilder) GroupSlots(group string) []int {
	return append([]int(nil), fb.groupSlots[group]...)
}

// Extract runs the configured extractors and exclusion rules on incident
// text (§5.1, §5.3).
func (fb *FeatureBuilder) Extract(title, body string, mentioned []string) Extraction {
	ex := Extraction{ByType: map[topology.ComponentType][]string{}}
	for _, rule := range fb.cfg.Excludes {
		switch rule.Field {
		case "TITLE":
			if rule.Re.MatchString(title) {
				ex.Excluded = true
			}
		case "BODY":
			if rule.Re.MatchString(body) {
				ex.Excluded = true
			}
		}
	}

	text := title + "\n" + body
	seen := map[string]bool{}
	consider := func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		comp, ok := fb.topo.Lookup(name)
		if !ok {
			return
		}
		// Component-level exclusion rules (e.g. decommissioned switches).
		for _, rule := range fb.cfg.Excludes {
			if rule.Field == string(comp.Type) && rule.Re.MatchString(name) {
				return
			}
		}
		ex.ByType[comp.Type] = append(ex.ByType[comp.Type], name)
	}
	for _, typ := range typeOrder {
		re, ok := fb.cfg.Extractors[typ]
		if !ok {
			continue
		}
		for _, m := range re.FindAllString(text, -1) {
			consider(m)
		}
	}
	// Structured mentions (the incident-management system also carries a
	// component list; the deployed Scout uses both).
	for _, m := range mentioned {
		consider(m)
	}

	// Dependency expansion through the topology abstraction: a VM implies
	// its host server; a server implies its ToR; everything implies its
	// cluster and DC (§5.1).
	for _, vm := range ex.ByType[topology.TypeVM] {
		if srv := fb.topo.ServerOfVM(vm); srv != "" {
			consider(srv)
		}
	}
	for _, srv := range ex.ByType[topology.TypeServer] {
		if tor := fb.topo.ToROfServer(srv); tor != "" {
			consider(tor)
		}
	}
	for _, typ := range typeOrder {
		for _, c := range ex.ByType[typ] {
			for _, anc := range fb.topo.Ancestors(c) {
				consider(anc)
			}
		}
	}
	for _, typ := range typeOrder {
		sort.Strings(ex.ByType[typ])
	}

	ex.Devices = append(ex.Devices, ex.ByType[topology.TypeVM]...)
	ex.Devices = append(ex.Devices, ex.ByType[topology.TypeServer]...)
	ex.Devices = append(ex.Devices, ex.ByType[topology.TypeSwitch]...)
	hasScope := len(ex.ByType[topology.TypeCluster]) > 0 || len(ex.ByType[topology.TypeDC]) > 0
	ex.Broad = len(ex.Devices) == 0 && hasScope
	ex.Empty = len(ex.Devices) == 0 && !hasScope
	return ex
}

// contributors returns the components whose data feeds the features of one
// component type: the extracted components of that type, plus — for
// clusters — every device the cluster tag covers (§5.2 "all data with the
// same ... 'cluster' tag is combined").
func (fb *FeatureBuilder) contributors(ex Extraction, typ topology.ComponentType) []string {
	switch typ {
	case topology.TypeCluster:
		var out []string
		for _, cl := range ex.ByType[typ] {
			out = append(out, cl)
			out = append(out, fb.topo.DescendantsOfType(cl, topology.TypeSwitch)...)
			out = append(out, fb.topo.DescendantsOfType(cl, topology.TypeServer)...)
		}
		return out
	case topology.TypeDC:
		// DC features aggregate the cluster-granularity datasets of the
		// DC's clusters; device-level data at DC scope would both dilute
		// (§9) and explode the query cost.
		var out []string
		for _, dc := range ex.ByType[typ] {
			out = append(out, dc)
			out = append(out, fb.topo.DescendantsOfType(dc, topology.TypeCluster)...)
		}
		return out
	default:
		return ex.ByType[typ]
	}
}

// Featurize builds the feature vector for an incident triggered at time t:
// statistics over the look-back window [t-T, t), with each series
// normalized against the preceding window [t-2T, t-T) so that features
// capture *changes* that indicate a failure (§5.2).
func (fb *FeatureBuilder) Featurize(ex Extraction, t float64) []float64 {
	return fb.FeaturizeInto(make([]float64, len(fb.names)), ex, t)
}

// FeaturizeInto is Featurize writing into a caller-owned vector — the
// pooled form the batch and serving paths use so scoring an incident
// produces no per-request feature-vector garbage. x must come from the
// same layout (len(FeatureNames()) cells); a mismatched slice is replaced
// by a fresh one. Every slot is overwritten, so a dirty pooled vector is
// fine. Returns the filled vector.
//
//scout:hotpath
func (fb *FeatureBuilder) FeaturizeInto(x []float64, ex Extraction, t float64) []float64 {
	if len(x) != len(fb.names) {
		x = make([]float64, len(fb.names))
	}
	mp, _ := fb.merge.Get().(*[]float64)
	if mp == nil {
		mp = new([]float64)
	}
	T := fb.cfg.LookbackHours
	slot := 0
	for _, typ := range fb.types {
		comps := fb.contributors(ex, typ)
		for _, g := range fb.groups {
			if !g.coversScope(typ) {
				continue
			}
			if g.isEvent {
				count := 0.0
				for _, d := range g.datasets {
					for _, comp := range comps {
						if fb.observes(d, comp) {
							count += float64(fb.stats.EventCount(d.Name, comp, t-T, t))
						}
					}
				}
				x[slot] = count
				slot++
				continue
			}
			merged := (*mp)[:0]
			for _, d := range g.datasets {
				for _, comp := range comps {
					if !fb.observes(d, comp) {
						continue
					}
					cur := fb.source.SeriesWindow(d.Name, comp, t-T, t)
					if len(cur) == 0 {
						continue
					}
					// The baseline window is only ever reduced to its mean
					// and standard deviation — ask the source for the
					// aggregates instead of materializing the values.
					bs, ok := fb.stats.WindowStats(d.Name, comp, t-2*T, t-T)
					merged = appendNormalized(merged, cur, bs, ok)
				}
			}
			metrics.Summarize(merged).VectorInto(x[slot : slot+len(metrics.SummaryNames)])
			slot += len(metrics.SummaryNames)
			*mp = merged // keep the grown capacity for the next group
		}
		x[slot] = float64(len(ex.ByType[typ]))
		slot++
	}
	fb.merge.Put(mp)
	return x
}

// observes reports whether dataset d monitors comp's component type
// (§5.1 tags every dataset with the types it observes). Featurization
// reads only such pairs: an uncovered read is always empty, so it adds
// nothing to a feature, and behind a faults.Breaker every such empty
// window would count toward tripping a healthy dataset.
//
//scout:hotpath
func (fb *FeatureBuilder) observes(d monitoring.Descriptor, comp string) bool {
	c, ok := fb.topo.Lookup(comp)
	return ok && d.CoversType(c.Type)
}

// appendNormalized z-scores the current window against the baseline
// window's aggregates and appends the result to dst, so merged series from
// different hardware are comparable and a distribution shift shows up in
// the upper/lower percentiles. baseOK is false when the baseline window was
// empty; the current window's own mean then centers the values (and the
// zero std falls through to the same floor the materializing implementation
// used).
//
//scout:hotpath
func appendNormalized(dst, cur []float64, base monitoring.Stats, baseOK bool) []float64 {
	mean, std := base.Mean, base.Std
	if !baseOK {
		mean = metrics.Mean(cur)
		std = 0
	}
	if std < 1e-9 {
		std = 1e-9 + math.Abs(mean)*0.01
		if std < 1e-9 {
			std = 1
		}
	}
	for _, v := range cur {
		dst = append(dst, (v-mean)/std)
	}
	return dst
}

// CPDInput assembles the CPD+ evidence for an incident (§5.2.2): raw series
// and event counts for the implicated devices, or — for broad incidents —
// for every switch and server in the implicated clusters.
func (fb *FeatureBuilder) CPDInput(ex Extraction, t float64) cpd.Input {
	in := cpd.Input{
		Broad:  ex.Broad,
		Series: map[string][][]float64{},
		Events: map[string][]float64{},
	}
	T := fb.cfg.LookbackHours
	comps := ex.Devices
	if ex.Broad {
		// Cap the per-cluster device sample: change-point detection is
		// the expensive path and the cluster-level model consumes
		// *average* rates, which a sample estimates fine.
		const maxPerKind = 8
		cap8 := func(xs []string) []string {
			if len(xs) > maxPerKind {
				return xs[:maxPerKind]
			}
			return xs
		}
		for _, cl := range ex.ByType[topology.TypeCluster] {
			comps = append(comps, cl)
			comps = append(comps, cap8(fb.topo.DescendantsOfType(cl, topology.TypeSwitch))...)
			comps = append(comps, cap8(fb.topo.DescendantsOfType(cl, topology.TypeServer))...)
		}
		for _, dc := range ex.ByType[topology.TypeDC] {
			comps = append(comps, cap8(fb.topo.DescendantsOfType(dc, topology.TypeCluster))...)
		}
	} else {
		// Narrow incidents still examine the cluster-granularity signals
		// of the devices' clusters (e.g. canary reachability).
		seen := map[string]bool{}
		for _, d := range ex.Devices {
			if cl := fb.topo.ClusterOf(d); cl != "" && !seen[cl] {
				seen[cl] = true
				comps = append(comps, cl)
			}
		}
	}
	for _, g := range fb.groups {
		for _, d := range g.datasets {
			for _, comp := range comps {
				if !fb.observes(d, comp) {
					continue
				}
				if d.Type == monitoring.Event {
					n := fb.stats.EventCount(d.Name, comp, t-T, t)
					in.Events[d.Name] = append(in.Events[d.Name], float64(n))
					continue
				}
				// Use the doubled window so the change point (fault
				// onset) sits inside the series.
				series := fb.source.SeriesWindow(d.Name, comp, t-2*T, t)
				if len(series) > 0 {
					in.Series[d.Name] = append(in.Series[d.Name], series)
				}
			}
		}
	}
	return in
}

// datasetCount counts the datasets the builder consumes.
func (fb *FeatureBuilder) datasetCount() int {
	n := 0
	for _, g := range fb.groups {
		n += len(g.datasets)
	}
	return n
}

// sourceHealth reports the availability picture featurization faces at
// time t: availability per consumed dataset, the unavailable datasets in
// feature-group order, and the largest admitted staleness (model hours).
// Sources without the monitoring.HealthReporter capability fall back to
// registry presence — a dataset deprecated out of Datasets() counts as
// down, which is exactly the §6 "monitoring system disappeared" case.
func (fb *FeatureBuilder) sourceHealth(t float64) (av map[string]bool, down []string, maxStale float64) {
	av = make(map[string]bool, fb.datasetCount())
	if fb.health != nil {
		for _, g := range fb.groups {
			for _, d := range g.datasets {
				h := fb.health.DatasetHealth(d.Name, t)
				av[d.Name] = h.Available
				if h.Staleness > maxStale {
					maxStale = h.Staleness
				}
			}
		}
	} else {
		for _, d := range fb.source.Datasets() {
			av[d.Name] = true
		}
	}
	for _, g := range fb.groups {
		for _, d := range g.datasets {
			if !av[d.Name] {
				down = append(down, d.Name)
			}
		}
	}
	return av, down, maxStale
}

// GroupDatasets lists the dataset names a feature group consumes (empty
// for class-derived groups that read no telemetry).
func (fb *FeatureBuilder) GroupDatasets(group string) []string {
	for _, g := range fb.groups {
		if g.name != group {
			continue
		}
		out := make([]string, len(g.datasets))
		for i, d := range g.datasets {
			out[i] = d.Name
		}
		return out
	}
	return nil
}

// DatasetNames lists the dataset names the builder consumes (sorted).
func (fb *FeatureBuilder) DatasetNames() []string {
	var out []string
	for _, g := range fb.groups {
		for _, d := range g.datasets {
			out = append(out, d.Name)
		}
	}
	sort.Strings(out)
	return out
}
