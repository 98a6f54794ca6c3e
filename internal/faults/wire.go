package faults

import (
	"net"
	"time"
)

// WrapListener subjects every connection accepted from l to the
// injector's plan for ISN isn. cottage-server uses this to serve a shard
// behind a configurable fault profile (-fail-rate, -slow-ms, ...), so
// client-side retries and hedging can be exercised against real sockets.
func WrapListener(l net.Listener, in *Injector, isn int) net.Listener {
	return &listener{Listener: l, in: in, isn: isn}
}

type listener struct {
	net.Listener
	in  *Injector
	isn int
}

func (l *listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		// A crashed ISN refuses service outright: the dial succeeds at
		// the TCP level but the connection dies before a byte is served,
		// which is what a freshly-killed process looks like from the
		// aggregator (SYN backlog drained by the kernel, then RST).
		if l.in.Crashed(l.isn) {
			c.Close()
			continue
		}
		return &Conn{Conn: c, in: l.in, isn: l.isn}, nil
	}
}

// Conn is a net.Conn that consults the injector on every outbound frame.
// Faults are applied on Write — the reply path — because that is where a
// dying ISN hurts the aggregator: requests arrive fine, answers never
// make it back intact.
type Conn struct {
	net.Conn
	in  *Injector
	isn int
}

// Write applies the injector's verdict to the outgoing bytes: Crash and
// Drop close the connection (the peer sees a broken stream), Corrupt
// flips bytes before sending, Slow sleeps for the drawn delay. Delays
// compose with Drop/Corrupt so stragglers fail late, the way real
// stragglers do.
func (c *Conn) Write(p []byte) (int, error) {
	d := c.in.OnRequest(c.isn)
	if d.DelayMS > 0 {
		time.Sleep(time.Duration(d.DelayMS * float64(time.Millisecond)))
	}
	switch d.Kind {
	case Crash, Drop:
		c.Conn.Close()
		return 0, net.ErrClosed
	case Corrupt:
		mangled := make([]byte, len(p))
		copy(mangled, p)
		// Flip a bit in every 7th byte: enough to desync a message stream
		// without zeroing it (a harder case for the decoder than
		// truncation).
		for i := 0; i < len(mangled); i += 7 {
			mangled[i] ^= 0x55
		}
		return c.Conn.Write(mangled)
	}
	return c.Conn.Write(p)
}
