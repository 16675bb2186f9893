package node

import (
	"fmt"
)

// CoordinatorHandler consumes site messages (implemented by HHCoordinator
// and MatCoordinator).
type CoordinatorHandler interface {
	Handle(Message) error
}

// BroadcastReceiver consumes coordinator broadcasts (implemented by HHSite
// and MatSite).
type BroadcastReceiver interface {
	HandleBroadcast(Message) error
}

// fanout is the coordinator's broadcast Sender over an in-process site set.
type fanout struct {
	sites []BroadcastReceiver
}

func (f *fanout) Send(m Message) error {
	for i, s := range f.sites {
		if err := s.HandleBroadcast(m); err != nil {
			return fmt.Errorf("node: broadcast to site %d: %w", i, err)
		}
	}
	return nil
}

// LocalHHCluster wires m HHSites directly to an HHCoordinator in one
// process. Feeders may call HandleItem on different sites from different
// goroutines concurrently; the lock discipline of the nodes makes the whole
// cluster race-free without a dispatcher goroutine.
type LocalHHCluster struct {
	Coordinator *HHCoordinator
	Sites       []*HHSite
}

// NewLocalHHCluster builds the in-process deployment of heavy-hitters P2.
func NewLocalHHCluster(m int, eps float64) (*LocalHHCluster, error) {
	fo := &fanout{}
	coord, err := NewHHCoordinator(m, eps, fo)
	if err != nil {
		return nil, err
	}
	cl := &LocalHHCluster{Coordinator: coord}
	for i := 0; i < m; i++ {
		site, err := NewHHSite(i, m, eps, SenderFunc(coord.Handle))
		if err != nil {
			return nil, err
		}
		cl.Sites = append(cl.Sites, site)
		fo.sites = append(fo.sites, site)
	}
	return cl, nil
}

// Feed delivers one item to a site.
func (c *LocalHHCluster) Feed(site int, elem uint64, w float64) error {
	if site < 0 || site >= len(c.Sites) {
		return fmt.Errorf("node: site %d out of range [0,%d)", site, len(c.Sites))
	}
	return c.Sites[site].HandleItem(elem, w)
}

// LocalMatCluster wires m MatSites directly to a MatCoordinator in one
// process, under the same concurrency contract as LocalHHCluster.
type LocalMatCluster struct {
	Coordinator *MatCoordinator
	Sites       []*MatSite
}

// matCoordSender is the in-process site→coordinator link: single messages
// go through Handle, and a site's whole outbox goes through HandleAll so
// the coordinator amortizes its lock across the batch (BatchSender).
type matCoordSender struct{ c *MatCoordinator }

func (s matCoordSender) Send(m Message) error       { return s.c.Handle(m) }
func (s matCoordSender) SendAll(ms []Message) error { return s.c.HandleAll(ms) }

// NewLocalMatCluster builds the in-process deployment of matrix P2.
func NewLocalMatCluster(m int, eps float64, d int) (*LocalMatCluster, error) {
	return newLocalMatCluster(m, eps, d, false)
}

// NewLocalMatClusterFast builds the in-process deployment with fast-mode
// sites (NewMatSiteFast): FeedRows blocks fold as single rank-k updates
// with per-block decompositions and pooled site scratch.
func NewLocalMatClusterFast(m int, eps float64, d int) (*LocalMatCluster, error) {
	return newLocalMatCluster(m, eps, d, true)
}

func newLocalMatCluster(m int, eps float64, d int, fast bool) (*LocalMatCluster, error) {
	fo := &fanout{}
	coord, err := NewMatCoordinator(m, eps, d, fo)
	if err != nil {
		return nil, err
	}
	cl := &LocalMatCluster{Coordinator: coord}
	for i := 0; i < m; i++ {
		site, err := newMatSite(i, m, eps, d, matCoordSender{coord}, fast)
		if err != nil {
			return nil, err
		}
		cl.Sites = append(cl.Sites, site)
		fo.sites = append(fo.sites, site)
	}
	return cl, nil
}

// Feed delivers one row to a site.
func (c *LocalMatCluster) Feed(site int, row []float64) error {
	if site < 0 || site >= len(c.Sites) {
		return fmt.Errorf("node: site %d out of range [0,%d)", site, len(c.Sites))
	}
	return c.Sites[site].HandleRow(row)
}

// FeedRows delivers a batch of rows to a site through the blocked ingest
// path.
func (c *LocalMatCluster) FeedRows(site int, rows [][]float64) error {
	if site < 0 || site >= len(c.Sites) {
		return fmt.Errorf("node: site %d out of range [0,%d)", site, len(c.Sites))
	}
	return c.Sites[site].HandleRows(rows)
}
