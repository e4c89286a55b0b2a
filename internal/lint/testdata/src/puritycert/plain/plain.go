// Package plain is not a solver package: it has no required
// entrypoints and certifies nothing, so puritycert must stay silent
// here.
package plain

import "context"

type pipe struct{ c chan int }

func (p *pipe) handle(ctx context.Context) {
	p.pull()
}

func (p *pipe) pull() {
	<-p.c
}
