// Command configvalidator scans an entity for misconfigurations using CVL
// rules.
//
//	configvalidator -host /path/to/root            scan a host filesystem
//	configvalidator -frame snapshot.frame          scan an offline frame
//	configvalidator -demo host                     scan a generated demo entity
//	configvalidator -demo image -misconfig 0.5     ...with injected issues
//
// By default the built-in 135-rule library (11 targets) runs; -manifest
// selects a custom rule set, -target restricts to one manifest entity, and
// -tags filters rules by compliance tag.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	configvalidator "configvalidator"
	"configvalidator/internal/cvl"
	"configvalidator/internal/dockersim"
	"configvalidator/internal/entity"
	"configvalidator/internal/fixtures"
	"configvalidator/internal/frames"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "configvalidator:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("configvalidator", flag.ContinueOnError)
	var (
		hostDir   = fs.String("host", "", "scan the filesystem rooted at this directory as a host")
		frameFile = fs.String("frame", "", "scan a configuration frame file (touchless validation)")
		tarFile   = fs.String("tar", "", "scan a tar archive (e.g. a docker export) as a container filesystem")
		demo      = fs.String("demo", "", "scan a generated demo entity: host, image, or container")
		misconfig = fs.Float64("misconfig", 0.3, "misconfiguration rate for -demo entities")
		seed      = fs.Int64("seed", 1, "seed for -demo entities")
		manifest  = fs.String("manifest", "", "custom manifest file (rule files resolve relative to it)")
		target    = fs.String("target", "", "validate only this manifest entity (e.g. sshd)")
		format    = fs.String("format", "text", "output format: text, json, or junit")
		showPass  = fs.Bool("show-passing", false, "include passing checks in text output")
		verbose   = fs.Bool("verbose", false, "include N/A results and per-check details")
		tags      = fs.String("tags", "", "comma-separated tag filter, e.g. '#cis,#ssl'")
		failOn    = fs.Bool("fail-on-findings", false, "exit nonzero when any check fails")
		suggest   = fs.Bool("suggest-fixes", false, "print proposed configuration edits for remediable failures")
		extended  = fs.Bool("extended", false, "include the extended rule pack (passwd, group, limits, cron)")
		ckpt      = fs.String("checkpoint", "", "durable result journal: replay the journaled report when the entity's config is unchanged, else scan and append")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ent, err := resolveEntity(*hostDir, *frameFile, *tarFile, *demo, *seed, *misconfig)
	if err != nil {
		return err
	}
	// Synthesize runtime features (mysql.ssl, ...) from configuration when
	// the scanned artifact cannot answer live queries.
	ent = configvalidator.WithRuntimePlugins(ent)

	opts := []configvalidator.Option{}
	if *extended {
		opts = append(opts, configvalidator.WithExtendedRules())
	}
	if *manifest != "" {
		m, reader, err := loadManifest(*manifest)
		if err != nil {
			return err
		}
		opts = append(opts, configvalidator.WithManifest(m, reader))
	}
	v, err := configvalidator.New(opts...)
	if err != nil {
		return err
	}

	// With -checkpoint, an unchanged entity replays its journaled report
	// instead of re-scanning (idempotent re-validation); a changed or
	// never-seen one scans and commits. The one-entity fleet scan takes
	// the resume check and the commit's digest from its own read.
	var jrnl *configvalidator.Journal
	if *ckpt != "" {
		jrnl, err = configvalidator.OpenJournal(*ckpt, configvalidator.JournalOptions{
			OnDegraded: func(derr error) {
				fmt.Fprintf(os.Stderr, "configvalidator: checkpoint journal degraded, result not persisted (validation continues): %v\n", derr)
			},
		})
		if err != nil {
			return err
		}
		defer func() { _ = jrnl.Close() }()
	}
	ents := make(chan configvalidator.Entity, 1)
	ents <- ent
	close(ents)
	res := <-v.ValidateFleet(context.Background(), ents, configvalidator.FleetOptions{Workers: 1, Target: *target, Journal: jrnl})
	if res.Err != nil {
		return res.Err
	}
	if res.Resumed {
		fmt.Fprintf(os.Stderr, "configvalidator: %s unchanged, replaying journaled result\n", ent.Name())
	}
	report := res.Report

	outOpts := configvalidator.OutputOptions{
		ShowPassing: *showPass,
		Verbose:     *verbose,
	}
	if *tags != "" {
		outOpts.TagFilter = strings.Split(*tags, ",")
	}
	switch *format {
	case "text":
		err = configvalidator.WriteText(out, report, outOpts)
	case "json":
		err = configvalidator.WriteJSON(out, report, outOpts)
	case "junit":
		err = configvalidator.WriteJUnit(out, report, outOpts)
	default:
		return fmt.Errorf("unknown format %q (want text, json, or junit)", *format)
	}
	if err != nil {
		return err
	}
	if *suggest {
		proposals := v.ProposeFixes(ent, report)
		if len(proposals) == 0 {
			fmt.Fprintln(out, "\nNo automatically remediable failures.")
		}
		for _, p := range proposals {
			fmt.Fprintf(out, "\n--- suggested fix: %s ---\n", p.Description)
			fmt.Fprintf(out, "%s", p.Fixed)
		}
	}
	if *failOn && report.Counts()[configvalidator.StatusFail] > 0 {
		return fmt.Errorf("%d checks failed", report.Counts()[configvalidator.StatusFail])
	}
	return nil
}

func resolveEntity(hostDir, frameFile, tarFile, demo string, seed int64, misconfig float64) (configvalidator.Entity, error) {
	selected := 0
	for _, s := range []string{hostDir, frameFile, tarFile, demo} {
		if s != "" {
			selected++
		}
	}
	if selected != 1 {
		return nil, fmt.Errorf("exactly one of -host, -frame, -tar, or -demo is required")
	}
	switch {
	case tarFile != "":
		f, err := os.Open(tarFile)
		if err != nil {
			return nil, err
		}
		defer func() { _ = f.Close() }()
		return entity.NewFromTar(filepath.Base(tarFile), entity.TypeContainer, f)
	case hostDir != "":
		name, err := os.Hostname()
		if err != nil {
			name = "host"
		}
		return entity.NewOSDir(name, entity.TypeHost, hostDir), nil
	case frameFile != "":
		f, err := os.Open(frameFile)
		if err != nil {
			return nil, err
		}
		defer func() { _ = f.Close() }()
		frame, err := frames.Read(f)
		if err != nil {
			return nil, err
		}
		return frame.Entity(), nil
	default:
		profile := fixtures.Profile{Seed: seed, MisconfigRate: misconfig}
		switch demo {
		case "host":
			ent, _ := fixtures.UbuntuHost("demo-host", profile)
			return ent, nil
		case "image":
			img, _ := fixtures.Image("demo-app", "v1", profile)
			return img.Entity(), nil
		case "container":
			img, _ := fixtures.Image("demo-app", "v1", profile)
			reg := dockersim.NewRegistry()
			reg.Push(img)
			c, err := reg.Run("demo-container", img.Ref())
			if err != nil {
				return nil, err
			}
			return c.Entity(), nil
		default:
			return nil, fmt.Errorf("unknown demo entity %q (want host, image, or container)", demo)
		}
	}
}

// loadManifest reads a manifest from disk; rule files referenced by it are
// resolved relative to the manifest's directory.
func loadManifest(path string) (*cvl.Manifest, cvl.FileReader, error) {
	content, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	m, err := cvl.ParseManifest(path, content)
	if err != nil {
		return nil, nil, err
	}
	base := filepath.Dir(path)
	reader := func(p string) ([]byte, error) {
		return os.ReadFile(filepath.Join(base, filepath.FromSlash(p)))
	}
	return m, reader, nil
}
