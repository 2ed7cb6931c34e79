package main

import (
	"fmt"
	"strings"

	"locofs"
	"locofs/internal/dms"
	"locofs/internal/telemetry"
)

// startCluster launches an in-process cluster with locofs.Start and dials
// the benchmark's clients to it through the timing dialer. The clients are
// configured as Cluster.NewClient configures them; dialing them here is
// what lets the dialer wrap the cluster's network.
func startCluster(opts locofs.Options) (*system, *locofs.Cluster, error) {
	c, err := locofs.Start(opts)
	if err != nil {
		return nil, nil, err
	}
	sys := &system{
		dmsRegs: map[string]*telemetry.Registry{}, fmsRegs: map[string]*telemetry.Registry{},
		dmsStore: c.DMSStore, journal: c.Flight.Journal(), send: &durStat{},
		replicas: max(opts.DMSReplicas, 1),
	}
	for name, reg := range c.Metrics {
		switch {
		case strings.HasPrefix(name, "dms"):
			sys.dmsRegs[name] = reg
		case strings.HasPrefix(name, "fms-"):
			sys.fmsRegs[name] = reg
		}
	}
	sharded := opts.DMSPartitions > 1 || opts.DMSReplicas > 1
	if sharded {
		for _, group := range c.DMSNodes {
			sys.dmsLeaders = append(sys.dmsLeaders, group[0].DMS())
			sys.partLeaders = append(sys.partLeaders, group[0])
		}
	} else {
		sys.dmsLeaders = []*dms.Server{c.DMS}
	}
	var fmsAddrs []string
	var fmsIDs []int
	for i := 0; i < opts.FMSCount; i++ {
		fmsAddrs = append(fmsAddrs, fmt.Sprintf("fms-%d", i))
		fmsIDs = append(fmsIDs, i)
	}
	sys.close = func() error {
		for _, cl := range sys.clients {
			cl.Close()
		}
		c.Close()
		return nil
	}
	for i := 0; i < numClients; i++ {
		cl, err := locofs.Dial(locofs.DialConfig{
			Dialer:     timedDialer{inner: c.Network(), send: sys.send},
			DMSAddr:    bootstrapDMS,
			DMSSharded: sharded,
			FMSAddrs:   fmsAddrs,
			FMSIDs:     fmsIDs,
			OSSAddrs:   []string{"oss-0"},
			UID:        1000, GID: 1000,
			Flight: c.Flight.Journal(),
		})
		if err != nil {
			sys.close()
			return nil, nil, err
		}
		sys.clients = append(sys.clients, cl)
	}
	return sys, c, nil
}

// checkEmptyCluster checks no directory but the root and no file metadata
// remain.
func checkEmptyCluster(c *locofs.Cluster, sys *system) error {
	var errs []string
	ents, err := sys.clients[0].Readdir("/")
	if err != nil {
		errs = append(errs, fmt.Sprintf("readdir /: %v", err))
	} else if len(ents) != 0 {
		errs = append(errs, fmt.Sprintf("/ still lists %d entries", len(ents)))
	}
	if n := c.DMS.DirCount(); n != 1 {
		errs = append(errs, fmt.Sprintf("DMS holds %d directories, want only the root", n))
	}
	for i, f := range c.FMS {
		if n := f.FileCount(); n != 0 {
			errs = append(errs, fmt.Sprintf("fms-%d still holds %d files", i, n))
		}
	}
	return joinErrs(errs)
}
