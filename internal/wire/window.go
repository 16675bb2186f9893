package wire

import "time"

// Vegas's two thresholds, in blocks the coordinator holds queued: the
// window grows while its estimate is below vegasAlpha and shrinks while it
// is above vegasBeta.
const (
	vegasAlpha = 2
	vegasBeta  = 4
)

// baseRounds is half the horizon of the minimum round trip: the minimum is
// taken over the current stretch of baseRounds round trips and the one
// before it, so a path that gets slower is measured again within
// 2·baseRounds round trips.
const baseRounds = 64

// window sizes a SiteConn's in-flight window by delay, after TCP Vegas
// (Brakmo and Peterson, SIGCOMM 1994). The coordinator acks only what it
// has applied, so blocks in flight beyond what the round trip needs only
// wait in its queue, and every one adds its apply time to the ack of the
// last. Once per round trip the blocks queued there are estimated as
// cwnd·(1 − base/rtt), where base is the smallest recent round trip and
// rtt the smallest of the round just ended: the window grows by one while
// that is below vegasAlpha and shrinks by one while it is above vegasBeta.
// A round in which the sender never filled the window leaves it as it is:
// fewer than cwnd blocks were in flight, so the estimate does not hold,
// and the window was not what set the pace. The window starts at the cap,
// SiteConfig.Window, and never goes below two ack intervals of the
// listener (2·ackEvery), so a window of that size or less stays fixed. On
// a long round trip the estimate stays near 0 and the window stays at the
// cap.
type window struct {
	cwnd, floor, ceil int

	limited  bool          // the sender waited on cwnd this round
	roundEnd uint64        // the round ends with the ack of this seq
	roundMin time.Duration // smallest round trip sampled this round (0: none)

	rounds           int           // round trips in the current stretch
	baseCur, basePrv time.Duration // minimum round trip of this stretch and the one before (0: none)
}

func newWindow(limit int) window {
	return window{cwnd: limit, floor: min(2*ackEvery, limit), ceil: limit}
}

// sample folds in rtt, the round trip of seq acked, the newest block an
// ack covered; sent is the newest seq transmitted so far. When acked ends
// the round it applies Vegas's rule, starts the next round, and reports
// whether cwnd moved.
func (w *window) sample(acked, sent uint64, rtt time.Duration) bool {
	rtt = max(rtt, 1) // 0 means "no sample"
	if w.roundMin == 0 || rtt < w.roundMin {
		w.roundMin = rtt
	}
	if acked < w.roundEnd {
		return false
	}
	rtt, limited := w.roundMin, w.limited
	w.roundEnd, w.roundMin, w.limited = sent, 0, false

	if w.baseCur == 0 || rtt < w.baseCur {
		w.baseCur = rtt
	}
	base := w.baseCur
	if w.basePrv != 0 && w.basePrv < base {
		base = w.basePrv
	}
	if w.rounds++; w.rounds == baseRounds {
		w.basePrv, w.baseCur, w.rounds = w.baseCur, 0, 0
	}

	if !limited {
		return false // the window held nothing back
	}
	queued := float64(w.cwnd) * (1 - float64(base)/float64(rtt))
	was := w.cwnd
	switch {
	case queued < vegasAlpha:
		w.cwnd = min(w.cwnd+1, w.ceil)
	case queued > vegasBeta:
		w.cwnd = max(w.cwnd-1, w.floor)
	}
	return w.cwnd != was
}
