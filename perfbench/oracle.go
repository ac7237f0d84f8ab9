package main

// oracle is a sorted key multiset over the domain [0, dom]: the row count
// of every key, plus what it knows of their payloads. A row's payload
// follows from its origin, the key it was loaded or inserted with;
// UpdateKey moves a row to a new key with its payload. The oracle answers
// every read exactly. It checks a MultiRangeSum only over ranges whose
// payloads it knows: when the engine deletes or moves one row of a key
// whose rows have different origins, which one it took is the engine's
// choice, and the key's remaining payloads become unknown.
type oracle struct {
	count []int32
	// moved holds, for keys holding rows that UpdateKey moved there, the
	// origins of those rows; the key's other rows have the key as origin.
	moved map[int64][]int64
	// unknown marks keys whose payloads the oracle no longer knows.
	unknown []uint64
	rows    int
}

func newOracle(keys []int64, dom int64) *oracle {
	o := &oracle{count: make([]int32, dom+1), moved: map[int64][]int64{}, unknown: make([]uint64, dom/64+1)}
	for _, k := range keys {
		o.count[k]++
	}
	o.rows = len(keys)
	return o
}

func (o *oracle) isUnknown(k int64) bool { return o.unknown[k>>6]&(1<<(k&63)) != 0 }

func (o *oracle) setUnknown(k int64, on bool) {
	if on {
		o.unknown[k>>6] |= 1 << (k & 63)
	} else {
		o.unknown[k>>6] &^= 1 << (k & 63)
	}
}

// origin returns the origin every row of k shares, if they share one and
// the oracle knows it.
func (o *oracle) origin(k int64) (int64, bool) {
	if o.isUnknown(k) {
		return 0, false
	}
	m := o.moved[k]
	if len(m) == 0 {
		return k, true
	}
	for _, x := range m[1:] {
		if x != m[0] {
			return 0, false
		}
	}
	if int(o.count[k]) > len(m) { // rows of origin k remain too
		return 0, false
	}
	return m[0], true
}

// remove takes one row of key k, as Delete and UpdateKey do, and returns
// its origin if the oracle can tell which row went.
func (o *oracle) remove(k int64) (int64, bool) {
	src, ok := o.origin(k)
	o.count[k]--
	o.rows--
	switch {
	case o.count[k] == 0:
		delete(o.moved, k)
		o.setUnknown(k, false)
	case !ok:
		o.setUnknown(k, true)
	case src != k:
		o.moved[k] = o.moved[k][1:]
	}
	return src, ok
}

// apply updates the multiset for a write and fills in the expected answer
// of a read.
func (o *oracle) apply(p *op) {
	switch p.kind {
	case opPoint:
		p.want = int64(o.count[p.key])
	case opCount:
		p.want = o.rangeCount(p.key, p.key2)
	case opSum:
		p.want = o.rangeSum(p.key, p.key2)
	case opMulti:
		p.want, p.check = o.multiSum(p.key, p.key2)
	case opScan:
		n, h := o.scan(p.key, p.key2, int(p.limit))
		p.want, p.hash = int64(n), h
	case opInsert:
		o.count[p.key]++
		o.rows++
	case opDelete:
		o.remove(p.key)
	case opUpdate:
		if p.key == p.key2 {
			return
		}
		src, ok := o.remove(p.key)
		o.count[p.key2]++
		o.rows++
		switch {
		case !ok:
			o.setUnknown(p.key2, true)
		case src != p.key2:
			o.moved[p.key2] = append(o.moved[p.key2], src)
		}
	}
}

func (o *oracle) rangeCount(lo, hi int64) int64 {
	var n int64
	for k := lo; k <= hi; k++ {
		n += int64(o.count[k])
	}
	return n
}

func (o *oracle) rangeSum(lo, hi int64) int64 {
	var s int64
	for k := lo; k <= hi; k++ {
		s += int64(o.count[k]) * k
	}
	return s
}

// multiSum is MultiRangeSum under multiFilters; ok is false when a key in
// range holds rows of unknown payload.
func (o *oracle) multiSum(lo, hi int64) (sum int64, ok bool) {
	filters := multiFilters(nil, lo, hi)
	add := func(origin int64, rows int64) {
		for _, f := range filters {
			if v := payload(origin, f.Col); v < f.Lo || v > f.Hi {
				return
			}
		}
		sum += rows * int64(payload(origin, multiSumCol))
	}
	for k := lo; k <= hi; k++ {
		c := o.count[k]
		if c == 0 {
			continue
		}
		if o.isUnknown(k) {
			return 0, false
		}
		m := o.moved[k]
		add(k, int64(int(c)-len(m)))
		for _, src := range m {
			add(src, 1)
		}
	}
	return sum, true
}

// scan returns the row count and key-sequence hash of an ascending scan of
// [lo, hi] stopped after limit rows (0 = no limit).
func (o *oracle) scan(lo, hi int64, limit int) (int, uint64) {
	h := newKeyHash()
	n := 0
	for k := lo; k <= hi; k++ {
		for c := o.count[k]; c > 0; c-- {
			if limit > 0 && n == limit {
				return n, uint64(h)
			}
			h = h.add(k)
			n++
		}
	}
	return n, uint64(h)
}

// keyHash is an FNV-style hash over a key sequence (one 64-bit word per
// key), the exact-match check for scans.
type keyHash uint64

func newKeyHash() keyHash { return 14695981039346656037 }

func (h keyHash) add(k int64) keyHash { return (h ^ keyHash(k)) * 1099511628211 }
